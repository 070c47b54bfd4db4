package mem

import (
	"bytes"
	"encoding/gob"
	"sort"
)

// Wire serialization for run snapshots: the sparse page set flattened
// into a page-number-sorted slice, so encoding is deterministic and the
// decode rebuilds exactly the allocated pages (AllocatedWords, which
// feeds the checkpoint cost model, survives the round trip).

type pageWire struct {
	PN    uint64
	Words page
}

// GobEncode implements gob.GobEncoder. The receiver must be quiescent
// (no concurrent writers); the engine serializes only at checkpoint
// boundaries, where that holds.
func (m *Memory) GobEncode() ([]byte, error) {
	var pages []pageWire
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for pn, p := range sh.pages {
			pages = append(pages, pageWire{PN: pn, Words: *p})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].PN < pages[j].PN })
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(pages)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder, leaving the memory holding
// exactly the encoded pages.
func (m *Memory) GobDecode(data []byte) error {
	var pages []pageWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&pages); err != nil {
		return err
	}
	fresh := New()
	for i := range pages {
		p := pages[i].Words
		fresh.shardFor(pages[i].PN).pages[pages[i].PN] = &p
	}
	for i := range m.shards {
		dst := &m.shards[i]
		dst.mu.Lock()
		dst.pages = fresh.shards[i].pages
		dst.mu.Unlock()
	}
	return nil
}
