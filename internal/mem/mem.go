// Package mem implements the target machine's physical memory image.
//
// Memory is word-granular (64-bit words at 8-byte-aligned addresses) and
// paged. Pages in the low 4 GiB sit in a two-level page table, installed
// by compare-and-swap on first touch; words are read and written with
// atomic loads and stores. Cores on different host CPUs thus share the
// image without a lock, and no host race can tear a word of workload
// state (the paper relies on the same property: workload synchronization
// is executed reliably inside the simulator). Pages above that range,
// which traces and synthetic workloads may touch, go to a sparse map.
// Whole-image operations (SnapshotInto, Restore, Reset, Equal, the wire
// format) run only at quiescent points.
package mem

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// PageWords is the number of 64-bit words per page (4 KiB pages).
	PageWords = 512
	// pageShift converts a word index to a page number.
	pageShift = 9
	pageMask  = PageWords - 1
	// leafBits sizes a leaf: 1024 page slots, 4 MiB of target memory.
	leafBits = 10
	leafMask = 1<<leafBits - 1
	// densePages is the page table's range in pages: the low 4 GiB.
	densePages = 1 << 20
)

type page [PageWords]uint64

// leaf is one second-level table: a slot per page and a bit per
// allocated page. Restore and Reset take a page out by zeroing it and
// clearing its bit; it stays in its slot (reading as zeros) for the next
// write to reuse, and whole-image operations visit marked pages alone.
type leaf struct {
	pages [1 << leafBits]atomic.Pointer[page]
	used  [1 << leafBits / 64]atomic.Uint64
}

// Memory is a paged target memory image.
type Memory struct {
	dir  [densePages >> leafBits]atomic.Pointer[leaf]
	n    atomic.Int64 // allocated pages
	list []entry      // scratch for whole-image operations

	mu     sync.Mutex
	sparse map[uint64]*page // guarded by mu; pages above the dense range
}

type entry struct {
	pn uint64
	p  *page
}

// New returns an empty memory image.
func New() *Memory { return &Memory{sparse: make(map[uint64]*page)} }

func split(addr uint64) (pn, off uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
	}
	w := addr >> 3
	return w >> pageShift, w & pageMask
}

func newPage() *page {
	return new(page) //lint:allow hotpathalloc -- first write to a page number new to the image; pages taken out stay in their slots for reuse
}

// pageAt returns page pn, or nil when it has none. With create it installs
// the page and marks it allocated; of two cores first writing a page at
// once, the loser of the compare-and-swap adopts the winner's page.
// Without create a dense page may be one taken out, reading as zeros.
func (m *Memory) pageAt(pn uint64, create bool) *page {
	if pn >= densePages {
		m.mu.Lock()
		p := m.sparse[pn]
		if p == nil && create {
			p = newPage()
			m.sparse[pn] = p
			m.n.Add(1)
		}
		m.mu.Unlock()
		return p
	}
	d := &m.dir[pn>>leafBits]
	l := d.Load()
	if l == nil {
		if !create {
			return nil
		}
		d.CompareAndSwap(nil, new(leaf)) //lint:allow hotpathalloc -- one leaf per 4 MiB region, kept for the image's life
		l = d.Load()
	}
	slot := &l.pages[pn&leafMask]
	p := slot.Load()
	if !create {
		return p
	}
	if p == nil {
		slot.CompareAndSwap(nil, newPage())
		p = slot.Load()
	}
	w, bit := &l.used[pn&leafMask>>6], uint64(1)<<(pn&63)
	for old := w.Load(); old&bit == 0; old = w.Load() {
		if w.CompareAndSwap(old, old|bit) {
			m.n.Add(1)
			break
		}
	}
	return p
}

// has reports whether page pn is allocated.
func (m *Memory) has(pn uint64) bool {
	if pn >= densePages {
		return m.pageAt(pn, false) != nil
	}
	l := m.dir[pn>>leafBits].Load()
	return l != nil && l.used[pn&leafMask>>6].Load()&(1<<(pn&63)) != 0
}

// pages lists the allocated pages, the dense ones first and in
// page-number order, in a scratch slice that the next call reuses.
func (m *Memory) pages() []entry {
	m.list = m.list[:0]
	for i := range m.dir {
		l := m.dir[i].Load()
		for w := 0; l != nil && w < len(l.used); w++ {
			for b := l.used[w].Load(); b != 0; b &= b - 1 {
				j := w<<6 | bits.TrailingZeros64(b)
				m.list = append(m.list, entry{uint64(i)<<leafBits | uint64(j), l.pages[j].Load()})
			}
		}
	}
	m.mu.Lock()
	for pn, p := range m.sparse {
		m.list = append(m.list, entry{pn, p})
	}
	m.mu.Unlock()
	return m.list
}

// drop takes page e out of the image: a dense page is zeroed and
// unmarked, a sparse one dropped.
func (m *Memory) drop(e entry) {
	m.n.Add(-1)
	if e.pn >= densePages {
		m.mu.Lock()
		delete(m.sparse, e.pn)
		m.mu.Unlock()
		return
	}
	*e.p = page{}
	w := &m.dir[e.pn>>leafBits].Load().used[e.pn&leafMask>>6]
	w.Store(w.Load() &^ (1 << (e.pn & 63)))
}

// Read returns the 64-bit word at the 8-byte-aligned address addr.
// Unallocated memory reads as zero.
func (m *Memory) Read(addr uint64) uint64 {
	pn, off := split(addr)
	if p := m.pageAt(pn, false); p != nil {
		return atomic.LoadUint64(&p[off])
	}
	return 0
}

// Write stores the 64-bit word v at the 8-byte-aligned address addr.
func (m *Memory) Write(addr uint64, v uint64) {
	pn, off := split(addr)
	atomic.StoreUint64(&m.pageAt(pn, true)[off], v)
}

// ReadFloat reads the word at addr and reinterprets it as float64.
func (m *Memory) ReadFloat(addr uint64) float64 {
	return math.Float64frombits(m.Read(addr))
}

// WriteFloat stores float64 f's bit pattern at addr.
func (m *Memory) WriteFloat(addr uint64, f float64) {
	m.Write(addr, math.Float64bits(f))
}

// SnapshotInto deep-copies the memory image into dst, reusing its pages.
func (m *Memory) SnapshotInto(dst *Memory) {
	dst.Restore(m)
}

// Restore overwrites this memory with the snapshot's contents in place.
func (m *Memory) Restore(snap *Memory) {
	for _, e := range m.pages() {
		if !snap.has(e.pn) {
			m.drop(e)
		}
	}
	for _, e := range snap.pages() {
		*m.pageAt(e.pn, true) = *e.p
	}
}

// Reset empties the memory, keeping its pages for reuse, when a pooled
// machine is recycled for a new run.
func (m *Memory) Reset() {
	for _, e := range m.pages() {
		m.drop(e)
	}
}

// AllocatedWords reports how many words of backing store are allocated
// (used by the checkpoint cost model).
func (m *Memory) AllocatedWords() int {
	return int(m.n.Load()) * PageWords
}

// Equal reports whether two memory images hold identical contents
// (unallocated pages compare equal to zero pages).
func (m *Memory) Equal(o *Memory) bool {
	return m.within(o) && o.within(m)
}

// within reports whether every page of m equals o's page of the same
// number, an absent page reading as zeros.
func (m *Memory) within(o *Memory) bool {
	for _, e := range m.pages() {
		if q := o.pageAt(e.pn, false); q == nil && *e.p != (page{}) || q != nil && *q != *e.p {
			return false
		}
	}
	return true
}
