// Package mem implements the target machine's physical memory image.
//
// Memory is word-granular (64-bit words at 8-byte-aligned addresses) and
// sparsely paged so that workloads can use widely-spread address regions
// without preallocating gigabytes. All accesses are safe for concurrent use
// by core threads in the parallel host; functional values read through a
// lock so the simulated workload state itself can never be corrupted by
// host races (the paper relies on the same property: workload
// synchronization is executed reliably inside the simulator).
package mem

import (
	"fmt"
	"sync"
)

const (
	// PageWords is the number of 64-bit words per page (4 KiB pages).
	PageWords = 512
	// pageShift converts a word index to a page number.
	pageShift = 9
	pageMask  = PageWords - 1
	numShards = 16
)

type page [PageWords]uint64

type shard struct {
	mu    sync.RWMutex
	pages map[uint64]*page
	// free parks zeroed pages released by rollback deletion or Reset, so
	// page churn recycles instead of allocating; guarded by mu (or by
	// exclusive ownership of the Memory, e.g. a manager-private snapshot).
	free []*page
}

// getPage pops a recycled (already zeroed) page or allocates a fresh one.
// The caller holds sh.mu or owns the Memory exclusively.
//
//slacksim:hotpath
//slacksim:pooled
func (sh *shard) getPage() *page {
	if n := len(sh.free); n > 0 { //lint:allow guardedby -- locking contract: every caller holds sh.mu or owns the Memory exclusively
		p := sh.free[n-1]       //lint:allow guardedby -- see above
		sh.free[n-1] = nil      //lint:allow guardedby -- see above
		sh.free = sh.free[:n-1] //lint:allow guardedby -- see above
		return p
	}
	return new(page) //lint:allow hotpathalloc -- pool warm-up: runs only while the page free list is empty
}

// putPage zeroes p and parks it on the free list. Same locking contract
// as getPage. Zeroing happens here, off the Write fast path, so a
// recycled page reads as zero exactly like a fresh one.
//
//slacksim:hotpath
func (sh *shard) putPage(p *page) {
	*p = page{}
	sh.free = append(sh.free, p) //lint:allow hotpathalloc,guardedby -- free-list growth is bounded by the high-water page count, then reused; caller holds sh.mu per the locking contract
}

// Memory is a sparse, sharded target memory image.
type Memory struct {
	shards [numShards]shard
}

// New returns an empty memory image.
func New() *Memory {
	m := &Memory{}
	for i := range m.shards {
		m.shards[i].pages = make(map[uint64]*page)
	}
	return m
}

func split(addr uint64) (pn, off uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
	}
	w := addr >> 3
	return w >> pageShift, w & pageMask
}

func (m *Memory) shardFor(pn uint64) *shard { return &m.shards[pn%numShards] }

// Read returns the 64-bit word at the 8-byte-aligned address addr.
// Unallocated memory reads as zero.
func (m *Memory) Read(addr uint64) uint64 {
	pn, off := split(addr)
	sh := m.shardFor(pn)
	sh.mu.RLock()
	p := sh.pages[pn]
	var v uint64
	if p != nil {
		v = p[off]
	}
	sh.mu.RUnlock()
	return v
}

// Write stores the 64-bit word v at the 8-byte-aligned address addr.
func (m *Memory) Write(addr uint64, v uint64) {
	pn, off := split(addr)
	sh := m.shardFor(pn)
	sh.mu.Lock()
	p := sh.pages[pn]
	if p == nil {
		p = sh.getPage()
		sh.pages[pn] = p
	}
	p[off] = v
	sh.mu.Unlock()
}

// ReadFloat reads the word at addr and reinterprets it as float64.
func (m *Memory) ReadFloat(addr uint64) float64 {
	return f64(m.Read(addr))
}

// WriteFloat stores float64 f's bit pattern at addr.
func (m *Memory) WriteFloat(addr uint64, f float64) {
	m.Write(addr, u64(f))
}

// Snapshot returns a deep copy of the memory image. It is the memory's
// contribution to a simulation checkpoint.
func (m *Memory) Snapshot() *Memory {
	c := New()
	m.SnapshotInto(c)
	return c
}

// SnapshotInto deep-copies the memory image into dst, reusing dst's page
// maps and recycled pages — the pooled-snapshot-graph variant of
// Snapshot.
func (m *Memory) SnapshotInto(dst *Memory) {
	dst.Restore(m)
}

// Restore overwrites this memory with the snapshot's contents, reusing
// the existing page maps and page allocations.
func (m *Memory) Restore(snap *Memory) {
	for i := range m.shards {
		src := &snap.shards[i]
		dst := &m.shards[i]
		src.mu.RLock()
		dst.mu.Lock()
		for pn, p := range dst.pages {
			if src.pages[pn] == nil {
				delete(dst.pages, pn)
				dst.putPage(p)
			}
		}
		for pn, p := range src.pages {
			q := dst.pages[pn]
			if q == nil {
				q = dst.getPage()
				dst.pages[pn] = q
			}
			*q = *p
		}
		dst.mu.Unlock()
		src.mu.RUnlock()
	}
}

// Reset returns the memory to its freshly-constructed (empty) state,
// recycling every page through the shard free lists. Used when a pooled
// machine is recycled for a new run.
func (m *Memory) Reset() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, p := range sh.pages {
			sh.putPage(p)
		}
		clear(sh.pages)
		sh.mu.Unlock()
	}
}

// AllocatedWords reports how many words of backing store are allocated
// (used by the checkpoint cost model).
func (m *Memory) AllocatedWords() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.pages) * PageWords
		sh.mu.RUnlock()
	}
	return n
}

// Equal reports whether two memory images hold identical contents
// (unallocated pages compare equal to zero pages).
func (m *Memory) Equal(o *Memory) bool {
	zero := page{}
	check := func(a, b *Memory) bool {
		for i := range a.shards {
			sa := &a.shards[i]
			sb := &b.shards[i]
			sa.mu.RLock()
			sb.mu.RLock()
			ok := true
			for pn, p := range sa.pages {
				q := sb.pages[pn]
				if q == nil {
					q = &zero
				}
				if *p != *q {
					ok = false
					break
				}
			}
			sb.mu.RUnlock()
			sa.mu.RUnlock()
			if !ok {
				return false
			}
		}
		return true
	}
	return check(m, o) && check(o, m)
}
