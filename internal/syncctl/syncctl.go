// Package syncctl executes the workload's synchronization primitives
// (locks and global barriers) reliably inside the simulator, the way the
// paper's SlackSim executes the MP_Simplesim parallel-programming APIs.
// Because acquisition and release are functionally atomic at the host
// level regardless of simulation slack, simulated-workload-state
// violations cannot occur (paper, Section 3) — tests assert exactly that.
//
// Timing is still modeled by the cores: a core that fails to acquire a
// lock or waits at a barrier keeps spinning in *target* time, so its local
// clock always advances and the slack time protocol stays live.
//
// Cores on different host CPUs share the controller without a lock: lock
// and barrier states are atomics in flat insert-only tables, and what
// only one core writes sits in that core's slot. SnapshotInto, Restore, Reset
// and the wire format run only at quiescent points.
package syncctl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Table sizes, and the slots a key probes before the sparse map.
const (
	lockSlots    = 1 << 12
	barrierSlots = 1 << 4
	probes       = 8
)

// Controller holds the functional state of every lock word and barrier.
//
// Releases become visible strictly after the simulated cycle in which they
// happen (one cycle of propagation), which both matches hardware and makes
// cycle-by-cycle simulation independent of the order in which the host
// executes cores within one target cycle.
type Controller struct {
	locks    table[lockState]
	barriers table[barrier]
	cores    []coreSlot
}

// lockState is one lock word: its owner plus one (0 when free) and the
// simulated time of its last release plus one (0 before the first), so
// the zero value is a free lock never released.
type lockState struct{ owner, released atomic.Int64 }

// barrier is one barrier: how many cores wait in the current generation
// and the simulated time that released the previous one, plus one.
type barrier struct {
	arrived, released atomic.Int64
	gen               atomic.Uint64
}

// Counts is the controller's traffic: lock acquisitions, releases and
// failed attempts, and completed barrier generations.
type Counts struct {
	Acquires, Releases, Contended uint64
	BarrierEpisodes               uint64
}

// coreSlot holds what only one core writes: its counts and its last
// barrier arrival, which makes it a waiter until that generation is
// released. It is padded to a cache line's length.
type coreSlot struct {
	Counts
	arrived bool
	id      int64
	gen     uint64
	_       [8]byte
}

// New returns a controller for a machine with numCores participating
// hardware threads. Every barrier involves all numCores threads.
func New(numCores int) *Controller {
	return &Controller{newTable[lockState](lockSlots), newTable[barrier](barrierSlots), make([]coreSlot, numCores)}
}

// TryLock attempts to acquire the lock word at addr for core at simulated
// time now. It returns true on success; it fails while the lock is held or
// while a same-cycle release has not propagated yet. Re-acquiring a lock
// the core already owns panics: the workload kernels never do it and
// silence would hide kernel bugs.
func (c *Controller) TryLock(addr uint64, core int, now int64) bool {
	l, me := c.locks.find(addr, true), &c.cores[core]
	o := l.owner.Load()
	if o == int64(core)+1 {
		panic(fmt.Sprintf("syncctl: core %d re-acquires lock %#x it already holds", core, addr))
	}
	// Same-cycle handoff is blocked (one cycle of propagation), which
	// keeps cycle-by-cycle simulation independent of host execution
	// order. An acquirer whose clock is *behind* the release time may
	// proceed: under slack the clocks are incomparable and forbidding it
	// would impose a causality barrier the real SlackSim does not have
	// (it would also hide the migratory-sharing reorderings that produce
	// the paper's map violations). Unlock stores the release time before
	// it frees the owner, so a free owner is never seen with a stale time.
	if o != 0 || now+1 == l.released.Load() || !l.owner.CompareAndSwap(0, int64(core)+1) {
		me.Contended++
		return false
	}
	me.Acquires++
	return true
}

// Unlock releases the lock word at addr at simulated time now. Releasing a
// lock the core does not own panics (workload bug).
func (c *Controller) Unlock(addr uint64, core int, now int64) {
	l := c.locks.find(addr, false)
	if l == nil || l.owner.Load() != int64(core)+1 {
		panic(fmt.Sprintf("syncctl: core %d releases lock %#x it does not hold", core, addr))
	}
	if now+1 > l.released.Load() {
		l.released.Store(now + 1)
	}
	l.owner.Store(0)
	c.cores[core].Releases++
}

// BarrierArrive registers core's arrival at barrier id at simulated time
// now and returns the generation the core is waiting for. The last arrival
// releases the barrier, visible to waiters strictly after now: it resets
// the count and stamps the release time before it moves the generation
// on, so a waiter that sees the new generation sees the time too.
// Arriving twice in the same generation panics.
func (c *Controller) BarrierArrive(id int64, core int, now int64) (generation uint64) {
	b, me := c.barriers.find(uint64(id), true), &c.cores[core]
	gen := b.gen.Load()
	if me.arrived && me.id == id && me.gen == gen {
		panic(fmt.Sprintf("syncctl: core %d arrives twice at barrier %d generation %d", core, id, gen))
	}
	me.arrived, me.id, me.gen = true, id, gen
	if b.arrived.Add(1) >= int64(len(c.cores)) {
		b.arrived.Store(0)
		b.released.Store(now + 1)
		b.gen.Add(1)
		me.BarrierEpisodes++
	}
	return gen
}

// BarrierPassed reports whether a core that arrived in the given
// generation may proceed at simulated time now: the barrier must have
// moved past the generation and the release must not be in the asker's
// current cycle (one cycle of propagation, which keeps cycle-by-cycle
// simulation host-order independent). A waiter whose clock is behind the
// release time passes — under slack that is a tolerated simulated-time
// distortion, not a wait.
func (c *Controller) BarrierPassed(id int64, generation uint64, now int64) bool {
	b := c.barriers.find(uint64(id), false)
	if b == nil {
		return false
	}
	g := b.gen.Load()
	return g > generation && (g != generation+1 || now+1 != b.released.Load())
}

// LocksHeld returns the number of currently-held locks.
func (c *Controller) LocksHeld() (n int) {
	c.locks.each(func(_ uint64, l *lockState) {
		if l.owner.Load() != 0 {
			n++
		}
	})
	return n
}

// Counts sums the per-core counts.
func (c *Controller) Counts() (t Counts) {
	for _, s := range c.cores {
		t.Acquires, t.Releases = t.Acquires+s.Acquires, t.Releases+s.Releases
		t.Contended, t.BarrierEpisodes = t.Contended+s.Contended, t.BarrierEpisodes+s.BarrierEpisodes
	}
	return t
}

// SnapshotInto deep-copies the controller into dst, a controller built
// with New for any core count.
//
//slacksim:hotpath
func (c *Controller) SnapshotInto(dst *Controller) {
	dst.Restore(c)
}

// Reset returns the controller to its freshly-constructed state, for a
// pooled machine's next run.
func (c *Controller) Reset() {
	clear(c.cores)
	c.locks.copyFrom(nil)
	c.barriers.copyFrom(nil)
}

// Restore overwrites the controller from a snapshot in place.
func (c *Controller) Restore(snap *Controller) {
	c.cores = append(c.cores[:0], snap.cores...)
	c.locks.copyFrom(&snap.locks)
	c.barriers.copyFrom(&snap.barriers)
}

// table is an insert-only hash table from keys to entries, safe for
// concurrent use. A key claims a slot by compare-and-swap on the slot's
// key word; the zero entry is every entry's initial state, so a claimed
// entry is ready at once. A key that finds its probe window full, or the
// one key with no slot encoding (all ones), goes to the sparse map.
type table[E any] struct {
	keys []atomic.Uint64 // key plus one; zero marks a free slot
	vals []E

	mu     sync.Mutex
	sparse map[uint64]*E // guarded by mu
}

func newTable[E any](slots int) table[E] {
	return table[E]{keys: make([]atomic.Uint64, slots), vals: make([]E, slots), sparse: make(map[uint64]*E)}
}

// newEntry allocates an entry of the sparse map.
func newEntry[E any]() *E {
	return new(E) //lint:allow hotpathalloc -- only keys that overflow the table, one allocation per key
}

// find returns key's entry, or nil when it has none and insert is false.
func (t *table[E]) find(key uint64, insert bool) *E {
	if k := key + 1; k != 0 {
		mask := uint64(len(t.keys) - 1)
		i := k * 0x9E3779B97F4A7C15 >> 32 & mask
		for n := 0; n < probes; n, i = n+1, (i+1)&mask {
			s := t.keys[i].Load()
			if s == 0 && !insert {
				return nil
			}
			if s == k || s == 0 && (t.keys[i].CompareAndSwap(0, k) || t.keys[i].Load() == k) {
				return &t.vals[i]
			}
		}
	}
	t.mu.Lock()
	e := t.sparse[key]
	if e == nil && insert {
		e = newEntry[E]()
		t.sparse[key] = e
	}
	t.mu.Unlock()
	return e
}

// each calls fn on every entry.
func (t *table[E]) each(fn func(key uint64, e *E)) {
	for i := range t.keys {
		if k := t.keys[i].Load(); k != 0 {
			fn(k-1, &t.vals[i])
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, e := range t.sparse {
		fn(k, e)
	}
}

// copyFrom makes t an exact copy of s, or empties it when s is nil.
func (t *table[E]) copyFrom(s *table[E]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.sparse)
	if s == nil {
		clear(t.keys)
		clear(t.vals)
		return
	}
	copy(t.keys, s.keys)
	copy(t.vals, s.vals)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.sparse {
		t.sparse[k] = newEntry[E]()
		*t.sparse[k] = *e
	}
}
