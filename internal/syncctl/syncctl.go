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
package syncctl

import (
	"fmt"
	"sync"
)

// Controller holds the functional state of every lock word and barrier.
//
// Releases become visible strictly after the simulated cycle in which they
// happen (one cycle of propagation), which both matches hardware and makes
// cycle-by-cycle simulation independent of the order in which the host
// executes cores within one target cycle.
type Controller struct {
	mu       sync.Mutex
	numCores int

	// locks maps lock-word address -> lock state.
	locks map[uint64]*lockState

	// barriers maps barrier id -> state.
	barriers map[int64]*barrier

	// Acquires, Releases, Contended count lock traffic; BarrierEpisodes
	// counts completed barrier generations.
	Acquires, Releases, Contended uint64
	BarrierEpisodes               uint64
}

type lockState struct {
	owner int // -1 when free
	// releasedAt is the simulated time of the last release; a TryLock at
	// a time <= releasedAt fails (the release is not visible yet).
	releasedAt int64
}

type barrier struct {
	arrived    int
	generation uint64
	// releasedAt is the simulated time at which the current generation
	// was released; waiters pass only strictly after it.
	releasedAt int64
	waiting    map[int]bool // cores currently parked in this generation
}

// New returns a controller for a machine with numCores participating
// hardware threads. Every barrier involves all numCores threads.
func New(numCores int) *Controller {
	return &Controller{
		numCores: numCores,
		locks:    make(map[uint64]*lockState),
		barriers: make(map[int64]*barrier),
	}
}

// TryLock attempts to acquire the lock word at addr for core at simulated
// time now. It returns true on success; it fails while the lock is held or
// while a same-cycle release has not propagated yet. Re-acquiring a lock
// the core already owns panics: the workload kernels never do it and
// silence would hide kernel bugs.
func (c *Controller) TryLock(addr uint64, core int, now int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.locks[addr]
	if l == nil {
		l = &lockState{owner: -1, releasedAt: -1}
		c.locks[addr] = l
	}
	if l.owner >= 0 {
		if l.owner == core {
			panic(fmt.Sprintf("syncctl: core %d re-acquires lock %#x it already holds", core, addr))
		}
		c.Contended++
		return false
	}
	if now == l.releasedAt {
		// Same-cycle handoff is blocked (one cycle of propagation), which
		// keeps cycle-by-cycle simulation independent of host execution
		// order. An acquirer whose clock is *behind* the release time may
		// proceed: under slack the clocks are incomparable and forbidding
		// it would impose a causality barrier the real SlackSim does not
		// have (it would also hide the migratory-sharing reorderings that
		// produce the paper's map violations).
		c.Contended++
		return false
	}
	l.owner = core
	c.Acquires++
	return true
}

// Unlock releases the lock word at addr at simulated time now. Releasing a
// lock the core does not own panics (workload bug).
func (c *Controller) Unlock(addr uint64, core int, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.locks[addr]
	if l == nil || l.owner != core {
		panic(fmt.Sprintf("syncctl: core %d releases lock %#x it does not hold", core, addr))
	}
	l.owner = -1
	if now > l.releasedAt {
		l.releasedAt = now
	}
	c.Releases++
}

// HeldBy returns the core owning the lock at addr, or -1.
func (c *Controller) HeldBy(addr uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.locks[addr]; l != nil {
		return l.owner
	}
	return -1
}

// BarrierArrive registers core's arrival at barrier id at simulated time
// now and returns the generation the core is waiting for. The last arrival
// releases the barrier, visible to waiters strictly after now. Arriving
// twice in the same generation panics.
func (c *Controller) BarrierArrive(id int64, core int, now int64) (generation uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.barriers[id]
	if b == nil {
		b = &barrier{waiting: make(map[int]bool), releasedAt: -1}
		c.barriers[id] = b
	}
	if b.waiting[core] {
		panic(fmt.Sprintf("syncctl: core %d arrives twice at barrier %d generation %d", core, id, b.generation))
	}
	gen := b.generation
	b.waiting[core] = true
	b.arrived++
	if b.arrived >= c.numCores {
		b.generation++
		b.arrived = 0
		clear(b.waiting)
		b.releasedAt = now
		c.BarrierEpisodes++
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
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.barriers[id]
	if b == nil || b.generation <= generation {
		return false
	}
	if b.generation == generation+1 {
		return now != b.releasedAt
	}
	return true
}

// WaitingAt returns how many cores are parked at barrier id right now.
func (c *Controller) WaitingAt(id int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.barriers[id]; b != nil {
		return b.arrived
	}
	return 0
}

// LocksHeld returns the number of currently-held locks.
func (c *Controller) LocksHeld() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, l := range c.locks {
		if l.owner >= 0 {
			n++
		}
	}
	return n
}

func copyBarrier(b *barrier) *barrier {
	w := make(map[int]bool, len(b.waiting))
	for k, v := range b.waiting {
		w[k] = v
	}
	return &barrier{arrived: b.arrived, generation: b.generation, releasedAt: b.releasedAt, waiting: w}
}

// Snapshot deep-copies the controller.
func (c *Controller) Snapshot() *Controller {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := New(c.numCores)
	for a, l := range c.locks {
		cp := *l
		n.locks[a] = &cp
	}
	for id, b := range c.barriers {
		n.barriers[id] = copyBarrier(b)
	}
	n.Acquires, n.Releases, n.Contended, n.BarrierEpisodes =
		c.Acquires, c.Releases, c.Contended, c.BarrierEpisodes
	return n
}

// SnapshotInto deep-copies the controller into dst, a controller built
// with New or Snapshot, reusing dst's maps and entries — the
// pooled-snapshot-graph variant of Snapshot and the mirror image of
// Restore. It walks every lock and barrier and deletes stale entries, so
// dst ends an exact copy. dst is owned by the checkpointing goroutine, so
// only the live controller is locked.
//
//slacksim:hotpath
func (c *Controller) SnapshotInto(dst *Controller) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dst.numCores = c.numCores
	for a := range dst.locks {
		if c.locks[a] == nil {
			delete(dst.locks, a)
		}
	}
	for a, l := range c.locks {
		e := dst.locks[a]
		if e == nil {
			e = &lockState{} //lint:allow hotpathalloc -- lock population is tiny and stable; entries are reused across boundaries
			dst.locks[a] = e
		}
		*e = *l
	}
	for id := range dst.barriers {
		if c.barriers[id] == nil {
			delete(dst.barriers, id)
		}
	}
	for id, b := range c.barriers {
		e := dst.barriers[id]
		if e == nil {
			e = &barrier{waiting: make(map[int]bool, len(b.waiting))} //lint:allow hotpathalloc -- barrier population is tiny and stable; entries are reused across boundaries
			dst.barriers[id] = e
		}
		e.arrived, e.generation, e.releasedAt = b.arrived, b.generation, b.releasedAt
		clear(e.waiting)
		for k, v := range b.waiting {
			e.waiting[k] = v
		}
	}
	dst.Acquires, dst.Releases, dst.Contended, dst.BarrierEpisodes =
		c.Acquires, c.Releases, c.Contended, c.BarrierEpisodes
}

// Reset returns the controller to its freshly-constructed state (same
// core count), dropping all lock and barrier state. Used when a pooled
// machine is recycled for a new run.
func (c *Controller) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.locks)
	clear(c.barriers)
	c.Acquires, c.Releases, c.Contended, c.BarrierEpisodes = 0, 0, 0, 0
}

// Restore overwrites the controller from a snapshot, reusing the live
// maps and entry allocations (lock and barrier populations are tiny and
// stable, so a restore in the rollback hot path allocates almost nothing).
func (c *Controller) Restore(snap *Controller) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.numCores = snap.numCores
	for a := range c.locks {
		if snap.locks[a] == nil {
			delete(c.locks, a)
		}
	}
	for a, l := range snap.locks {
		e := c.locks[a]
		if e == nil {
			e = &lockState{} //lint:allow hotpathalloc -- lock population is tiny and stable; entries are reused across boundaries
			c.locks[a] = e
		}
		*e = *l
	}
	for id := range c.barriers {
		if snap.barriers[id] == nil {
			delete(c.barriers, id)
		}
	}
	for id, b := range snap.barriers {
		e := c.barriers[id]
		if e == nil {
			e = &barrier{waiting: make(map[int]bool, len(b.waiting))} //lint:allow hotpathalloc -- barrier population is tiny and stable; entries are reused across boundaries
			c.barriers[id] = e
		}
		e.arrived, e.generation, e.releasedAt = b.arrived, b.generation, b.releasedAt
		clear(e.waiting)
		for k, v := range b.waiting {
			e.waiting[k] = v
		}
	}
	c.Acquires, c.Releases, c.Contended, c.BarrierEpisodes =
		snap.Acquires, snap.Releases, snap.Contended, snap.BarrierEpisodes
}
