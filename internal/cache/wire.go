package cache

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"slacksim/internal/coherence"
)

// Wire serialization for run snapshots (durable checkpoint export /
// live migration). Each type mirrors its unexported state into an
// exported struct for encoding/gob; maps are flattened into slices
// sorted by key so the encoding is deterministic.

type cacheWire struct {
	Cfg    Config
	LRUClk uint64
	// Parallel arrays over every line, set-major then way order.
	Tags   []uint64
	States []coherence.State
	LRUs   []uint64

	Hits, Misses, Evictions, Writebacks uint64
}

// GobEncode implements gob.GobEncoder.
func (c *Cache) GobEncode() ([]byte, error) {
	w := cacheWire{
		Cfg: c.cfg, LRUClk: c.lruClk,
		Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions, Writebacks: c.Writebacks,
	}
	n := len(c.sets) * c.cfg.Assoc
	w.Tags = make([]uint64, 0, n)
	w.States = make([]coherence.State, 0, n)
	w.LRUs = make([]uint64, 0, n)
	for _, set := range c.sets {
		for i := range set {
			w.Tags = append(w.Tags, set[i].tag)
			w.States = append(w.States, set[i].state)
			w.LRUs = append(w.LRUs, set[i].lru)
		}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder, rebuilding the cache in place.
func (c *Cache) GobDecode(data []byte) error {
	var w cacheWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if err := w.Cfg.Validate(); err != nil {
		return err
	}
	if want := w.Cfg.Sets() * w.Cfg.Assoc; len(w.Tags) != want ||
		len(w.States) != want || len(w.LRUs) != want {
		return fmt.Errorf("cache %s: wire line count %d, want %d", w.Cfg.Name, len(w.Tags), want)
	}
	fresh := New(w.Cfg)
	*c = *fresh
	c.lruClk = w.LRUClk
	c.Hits, c.Misses, c.Evictions, c.Writebacks = w.Hits, w.Misses, w.Evictions, w.Writebacks
	k := 0
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{tag: w.Tags[k], state: w.States[k], lru: w.LRUs[k]}
			k++
		}
	}
	return nil
}

type mshrWire struct {
	Cap     int
	Entries []MSHR
	Merges  uint64
	Full    uint64
}

// GobEncode implements gob.GobEncoder.
func (f *MSHRFile) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(mshrWire{
		Cap: f.cap, Entries: f.entries,
		Merges: f.Merges, Full: f.Full,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (f *MSHRFile) GobDecode(data []byte) error {
	var w mshrWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Cap <= 0 {
		return fmt.Errorf("cache: wire MSHR capacity %d must be positive", w.Cap)
	}
	f.cap = w.Cap
	f.entries = w.Entries
	f.Merges, f.Full = w.Merges, w.Full
	return nil
}

type mapEntryWire struct {
	Addr      uint64
	States    []coherence.State
	MonitorTS int64
}

type statusMapWire struct {
	NumCores int
	Lines    []mapEntryWire
}

// GobEncode implements gob.GobEncoder. Lines go out sorted by address,
// whatever their slot order.
func (m *StatusMap) GobEncode() ([]byte, error) {
	w := statusMapWire{NumCores: m.numCores, Lines: make([]mapEntryWire, len(m.keys))}
	for i, la := range m.keys {
		w.Lines[i] = mapEntryWire{Addr: la, States: m.row(int32(i)), MonitorTS: m.monitorTS[i]}
	}
	sort.Slice(w.Lines, func(i, j int) bool { return w.Lines[i].Addr < w.Lines[j].Addr })
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. A payload naming a line twice, or
// a state outside MESI, is rejected.
func (m *StatusMap) GobDecode(data []byte) error {
	var w statusMapWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.NumCores <= 0 {
		return fmt.Errorf("cache: wire status map has %d cores", w.NumCores)
	}
	fresh := NewStatusMap(w.NumCores)
	for _, e := range w.Lines {
		if len(e.States) != w.NumCores {
			return fmt.Errorf("cache: wire status map line %#x has %d states for %d cores",
				e.Addr, len(e.States), w.NumCores)
		}
		if _, dup := fresh.index[e.Addr]; dup {
			return fmt.Errorf("cache: wire status map names line %#x twice", e.Addr)
		}
		for c, s := range e.States {
			if s > coherence.Modified {
				return fmt.Errorf("cache: wire status map line %#x core %d has state %d, not MESI", e.Addr, c, s)
			}
		}
		fresh.index[e.Addr] = int32(len(fresh.keys))
		fresh.keys = append(fresh.keys, e.Addr)
		fresh.states = append(fresh.states, e.States...)
		fresh.monitorTS = append(fresh.monitorTS, e.MonitorTS)
	}
	*m = *fresh
	return nil
}
