package mem

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Wire serialization for run snapshots: the allocated pages in a
// page-number-sorted slice, so encoding is deterministic and the decode
// rebuilds exactly those pages (AllocatedWords, which feeds the
// checkpoint cost model, survives the round trip).

type pageWire struct {
	PN    uint64
	Words page
}

// MaxPages bounds a decoded image (1 GiB of target memory), so a forged
// payload cannot make the page table allocate without limit.
const MaxPages = 1 << 18

// GobEncode implements gob.GobEncoder. The receiver must be quiescent
// (no concurrent writers); the engine serializes only at checkpoint
// boundaries, where that holds.
func (m *Memory) GobEncode() ([]byte, error) {
	list := m.pages()
	pages := make([]pageWire, len(list))
	for i, e := range list {
		pages[i] = pageWire{PN: e.pn, Words: *e.p}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].PN < pages[j].PN })
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(pages)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder, leaving the memory holding
// exactly the encoded pages. A first pass decodes only the page numbers
// (gob skips the words), so that more than MaxPages pages, or page
// numbers out of order or named twice, fail before a page is allocated.
func (m *Memory) GobDecode(data []byte) error {
	var pns []struct{ PN uint64 }
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&pns); err != nil {
		return err
	}
	if len(pns) > MaxPages {
		return fmt.Errorf("mem: image holds %d pages, more than %d", len(pns), MaxPages)
	}
	for i := 1; i < len(pns); i++ {
		if pns[i].PN <= pns[i-1].PN {
			return fmt.Errorf("mem: page %#x out of order or named twice", pns[i].PN)
		}
	}
	var pages []pageWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&pages); err != nil {
		return err
	}
	m.Reset()
	for i := range pages {
		*m.pageAt(pages[i].PN, true) = pages[i].Words
	}
	return nil
}
