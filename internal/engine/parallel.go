package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// p2pState is one core thread's Lax-P2P bookkeeping (owned by that
// goroutine; partner clocks are read through the shared atomics).
type p2pState struct {
	rng     *rand.Rand
	next    int64
	partner int
	blocked bool
}

// parRun is the goroutine-parallel host's driver: one goroutine per
// target core plus the simulation manager goroutine, mirroring the paper's
// Pthreads architecture (a simulation of an 8-core target is nine host
// threads). Pacing uses the paper's protocol: each core thread owns a
// local time it may advance while it stays below its max local time; the
// manager goroutine observes the clocks, runs the shared manager step over
// them, and raises the max local times. The driver owns what only this
// host has — the goroutines, the eventcount pacer, quiesce-at-boundary and
// the stall watchdog.
//
// Memory-model contract (the invariants the pacing protocol relies on).
// Pacing is an eventcount (epoch/atomic) protocol: the fast path is
// lock-free on both sides, and mu/cond serve only as the futex-style slow
// path for cores that have exhausted their spin budget. DESIGN.md §13
// gives the full protocol and its lost-wakeup proof; the invariants are:
//
//   - localTime[i], committed[i] and retired[i] are written only by core
//     i's goroutine and read by the manager and watchdog through the
//     atomics; maxLocal[i] is written only by the manager (and once at
//     startup before the core goroutines exist) and read by core i.
//     All are Go atomics, which are sequentially consistent.
//   - Clock publication order (what makes cc cycle-exact). A core
//     publishes a tick as: out-queue pushes (inside Tick), then
//     retired[i] if the tick halted it, then localTime[i]. The manager
//     observes in the mirror order: localTime[i], then retired[i], for
//     every core, and only then drains the out-queues. Two invariants
//     follow. (1) Observe before drain: a request stamped below the
//     observed minimum was pushed before its core stored the clock the
//     manager read, so the drain that follows finds it and the pass that
//     serves its timestamp arbitrates it with its same-timestamp peers.
//     (2) Retired first, read last: an observation that sees a halted
//     core's post-halt clock also sees retired[i], so that clock is
//     never counted as an active local time and Cycles cannot end late.
//   - stop is sticky: it transitions false→true exactly once.
//   - A publication (any write that can unpark a core: raising
//     maxLocal[i], or setting stop) is: store the state atomically, bump
//     epoch, then — only if waiters != 0 — Broadcast *while holding mu*.
//   - A core parks by: incrementing waiters, acquiring mu, re-testing
//     stop/maxLocal, and only then blocking in cond.Wait. The seq-cst
//     total order makes the waiters gate safe: if the publisher read
//     waiters == 0, the waiter's increment came later, so the waiter's
//     re-test (later still) sees the published state and never blocks;
//     if the publisher read waiters != 0, its Broadcast runs under mu
//     and therefore cannot land between the waiter's re-test and its
//     Wait (the waiter holds mu across that window).
//   - epoch orders publications for spinning cores: a spin loop may use
//     a stale epoch only to spin longer, never to miss state (it re-reads
//     maxLocal/stop directly each iteration).
//   - parked[i] is guarded by mu; it is only meaningful while core i
//     holds mu or is blocked in cond.Wait. The manager's checkpoint
//     quiesce reads it under mu, which also blocks parked cores from
//     resuming mid-inspection (they must reacquire mu to leave Wait).
//   - The embedded manager (global, gq, meter, ...) is owned by the
//     manager goroutine; core goroutines only read its m and cfg, which
//     are immutable during the run. globalNow and gqDepth mirror global
//     and the pending-request count for the watchdog.
type parRun struct {
	manager

	localTime []atomic.Int64
	maxLocal  []atomic.Int64
	committed []atomic.Uint64
	retired   []atomic.Bool
	stop      atomic.Bool

	// epoch counts pacing publications (maxLocal raises and shutdown);
	// waiters counts cores committed to the futex-style slow path. See
	// the memory-model contract above and publish/waitForPacing below.
	epoch   atomic.Uint64
	waiters atomic.Int32

	// interrupt caches cfg.Interrupt so the hot loops poll one pointer
	// instead of copying the whole config (which would race with the
	// test idiom of tweaking r.cfg before goroutines observe it).
	interrupt *atomic.Bool

	// mu/cond park core goroutines that hit their max local time; parked
	// tracks which cores are waiting so the manager can quiesce the
	// machine for a global checkpoint.
	mu     sync.Mutex
	cond   *sync.Cond
	parked []bool // guarded by mu

	// kick wakes the manager when a core produced work or blocked.
	kick chan struct{}

	suspensions atomic.Uint64

	// globalNow and gqDepth mirror the manager's global and len(gq) for the
	// watchdog; stallErr is published by the watchdog before it force-stops
	// the run.
	globalNow atomic.Int64
	gqDepth   atomic.Int64
	stallErr  atomic.Pointer[StallError]
}

// RunParallel simulates the machine under cfg with the goroutine host and
// returns the results. Rollback is only available on the deterministic
// host (the paper likewise evaluates speculation analytically on top of
// measured checkpointing overhead); periodic checkpointing is supported.
func RunParallel(m *Machine, cfg RunConfig) (Results, error) {
	if cfg.Rollback {
		return Results{}, fmt.Errorf("engine: rollback is only supported on the deterministic host")
	}
	if cfg.Sampling != nil {
		return Results{}, fmt.Errorf("engine: sampling is only supported on the deterministic host")
	}
	mgr, err := newManager(m, cfg)
	if err != nil {
		return Results{}, err
	}
	n := m.NumCores()
	r := &parRun{
		manager:   mgr,
		localTime: make([]atomic.Int64, n),
		maxLocal:  make([]atomic.Int64, n),
		committed: make([]atomic.Uint64, n),
		retired:   make([]atomic.Bool, n),
		parked:    make([]bool, n),
		kick:      make(chan struct{}, 1),
		interrupt: cfg.Interrupt,
	}
	r.cond = sync.NewCond(&r.mu)
	r.raiseWalls()

	start := time.Now() //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.coreLoop(i)
		}(i)
	}
	var wdDone chan struct{}
	if r.cfg.StallTimeout > 0 {
		wdDone = make(chan struct{})
		go r.watchdog(wdDone)
	}
	r.managerLoop()
	// The manager already broadcast stop via shutdown(); repeat it here so
	// the exit does not depend on which return path the manager took.
	r.shutdown()
	wg.Wait()
	if wdDone != nil {
		close(wdDone)
	}
	if serr := r.stallErr.Load(); serr != nil {
		// Attach the trace tail now that every goroutine has joined and
		// the ring is quiescent: the last events before the wedge are the
		// first thing a diagnosis needs.
		serr.attachTrace(cfg.Tracer)
		return Results{}, serr
	}
	if cfg.interrupted() {
		// The interrupt raced the natural end of the run; either way the
		// caller asked for cancellation, so the outcome is ErrInterrupted.
		return Results{}, ErrInterrupted
	}
	// Trailing work issued just before the cores stopped.
	r.flush(r.observe())
	r.meter.suspensions = r.suspensions.Load()
	for _, c := range m.cores {
		r.meter.coreCycles += c.Stats().Cycles
	}
	return r.results("parallel", time.Since(start)), nil //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
}

// shutdown raises stop and wakes every parked core. Shutdown is rare, so
// it broadcasts unconditionally (no waiters gate): the store happens
// before the broadcast, and the broadcast is under mu, so a core between
// its park re-test and cond.Wait cannot miss the wakeup (it holds mu
// across that window; see the memory-model contract).
func (r *parRun) shutdown() {
	r.stop.Store(true)
	r.epoch.Add(1)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// publish makes a pacing change (new maxLocal values) visible: bump the
// epoch, then wake the slow-path waiters if there are any. The fast path
// — no core parked — is two atomic operations and never touches mu.
//
//slacksim:hotpath
func (r *parRun) publish() {
	r.epoch.Add(1)
	if r.waiters.Load() == 0 {
		// Every core is running or spinning; spinners re-read the pacing
		// atomics directly, and any core that parks after this point
		// re-tests them before blocking (see waitForPacing).
		return
	}
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// kickManager wakes the manager without blocking the core.
func (r *parRun) kickManager() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// parkHook, when non-nil, is called by a core goroutine after it has
// evaluated its park predicate (stop observed false, clock at the wall)
// and before it blocks in cond.Wait, while holding mu. Liveness tests use
// it to hold a core captive inside exactly the lost-wakeup window and
// prove a broadcast issued under mu cannot land there. Always nil in
// production runs.
var parkHook func(core int)

// parkSpinYields is the spin budget a core burns (as runtime.Gosched
// yields, so the manager gets the CPU even on a single-processor host)
// before falling back to the futex-style park. Pacing raises normally
// land within a few manager iterations, so most wall hits resolve in the
// spin phase without ever touching mu.
const parkSpinYields = 32

// pacingClear reports whether core i may advance again: the run is
// stopping (the episode ends and the outer loop exits) or the wall has
// been raised past the core's clock.
//
//slacksim:hotpath
func (r *parRun) pacingClear(i int, now int64) bool {
	return r.stop.Load() || now < r.maxLocal[i].Load()
}

// waitForPacing is one wall-hit episode for core i: kick the manager,
// spin-then-park until the wall rises or the run stops. The suspension
// counter counts episodes, not wakeups.
func (r *parRun) waitForPacing(i int, now int64) {
	r.suspensions.Add(1)
	r.kickManager()
	for n := 0; n < parkSpinYields; n++ {
		if r.pacingClear(i, now) {
			return
		}
		runtime.Gosched()
	}
	// Futex-style slow path. The waiters increment must precede the mu
	// re-test: a publisher that observed waiters == 0 (and so skipped its
	// broadcast) published strictly before this increment in the seq-cst
	// order, so the re-test below sees its state and never blocks.
	e := r.epoch.Load()
	r.waiters.Add(1)
	r.mu.Lock()
	r.parked[i] = true
	r.kickManager() // the manager may be waiting on parked[i] to quiesce
	for r.epoch.Load() == e && !r.pacingClear(i, now) {
		if parkHook != nil {
			parkHook(i)
		}
		r.cond.Wait()
	}
	// The epoch moved or the wall rose; either way re-test from the core
	// loop (an epoch bump always implies new pacing state or shutdown).
	r.parked[i] = false
	r.mu.Unlock()
	r.waiters.Add(-1)
}

// coreLoop is one core thread: advance while below the max local time,
// park when the wall is hit, exit on halt or stop.
func (r *parRun) coreLoop(i int) {
	c := r.m.cores[i]
	var p2p *p2pState
	// LaxP2P pairing needs a partner to pick; on a single-core machine the
	// gate degenerates to free-running (and Intn(0) would panic).
	if r.cfg.Scheme.Kind == LaxP2P && len(r.localTime) > 1 {
		p2p = &p2pState{
			rng:     rand.New(rand.NewSource(r.cfg.Seed + int64(i)*7919)),
			next:    r.cfg.Scheme.SyncPeriod,
			partner: -1,
		}
	}
	for !r.stop.Load() {
		if r.interruptedNow() {
			// Keep the manager awake until it observes the interrupt and
			// shuts the run down; parked cores are woken by the shutdown
			// broadcast, running ones funnel through here.
			r.kickManager()
			runtime.Gosched()
			continue
		}
		if p2p != nil && !r.p2pGate(i, c.Now(), p2p) {
			// Blocked at a pairwise sync: yield until the partner catches
			// up (polling keeps the pairing protocol wait-free).
			runtime.Gosched()
			continue
		}
		if c.Now() < r.maxLocal[i].Load() {
			before := r.m.outQs[i].Len()
			c.Tick()
			// Publication order (see the memory-model contract): the
			// tick's requests are already in the out-queue, retired goes
			// before the post-halt clock, the clock goes last.
			halted := c.Halted()
			if halted {
				r.retired[i].Store(true)
			}
			r.committed[i].Store(c.Committed())
			r.localTime[i].Store(c.Now())
			if halted {
				r.kickManager()
				return
			}
			if r.m.outQs[i].Len() > before {
				r.kickManager()
			}
			continue
		}
		// Suspend until the manager raises the max local time. This is
		// the synchronization cost cycle-by-cycle simulation pays every
		// cycle and unbounded slack never pays.
		r.waitForPacing(i, c.Now())
	}
}

// p2pGate evaluates one core's Lax-P2P synchronization: true when the
// core may advance. At each sync point it picks a random partner and
// waits while it is more than P2PMaxAhead cycles past it. The globally
// slowest core is never gated, so the protocol cannot deadlock.
func (r *parRun) p2pGate(i int, now int64, s *p2pState) bool {
	if now < s.next {
		return true
	}
	if s.partner < 0 {
		p := s.rng.Intn(len(r.localTime) - 1)
		if p >= i {
			p++
		}
		s.partner = p
	}
	if !r.retired[s.partner].Load() &&
		r.localTime[s.partner].Load() < now-r.cfg.Scheme.P2PMaxAhead {
		if !s.blocked {
			s.blocked = true
			r.suspensions.Add(1)
		}
		return false
	}
	s.next += r.cfg.Scheme.SyncPeriod
	s.partner = -1
	s.blocked = false
	return true
}

// managerLoop is the manager goroutine: each pass observes the clocks,
// runs the shared manager step over that observation, takes the checkpoint
// once the machine has quiesced at a boundary, and raises the walls.
func (r *parRun) managerLoop() {
	for {
		<-r.kick
		if r.stop.Load() {
			// The watchdog force-stopped the run while the manager was
			// waiting for work.
			return
		}
		for {
			o := r.observe()
			r.step(o)
			r.globalNow.Store(r.global)
			r.gqDepth.Store(int64(len(r.gq)))
			if r.stop.Load() || r.interruptedNow() || r.done(o) {
				r.shutdown()
				return
			}
			if r.nextCkpt > 0 && r.global == r.nextCkpt {
				// A false return means stragglers have yet to park at the
				// boundary; their park kicks the manager again.
				r.tryCheckpoint()
			}
			r.raiseWalls()
			if r.quietQueues() {
				break
			}
		}
	}
}

// observe reads the clocks the core goroutines publish. Per core the
// local time is read before the retired flag — the mirror image of
// coreLoop's publication order (see the memory-model contract) — so a
// halted core's post-halt clock is never counted as active.
func (r *parRun) observe() observation {
	o := observation{min: -1}
	for i := range r.localTime {
		now := r.localTime[i].Load()
		committed := r.committed[i].Load()
		o.add(now, committed, r.retired[i].Load())
	}
	return o
}

// raiseWalls sets every core's max local time to the manager's current
// wall: lock-free stores followed by one publication. Spinning cores
// observe the stores directly; a core headed for the slow path re-tests
// them before blocking (see the memory-model contract), so no mu is taken
// unless a waiter is actually parked.
func (r *parRun) raiseWalls() {
	ml := r.maxLocalTime()
	changed := false
	for i := range r.maxLocal {
		if r.maxLocal[i].Load() != ml {
			r.maxLocal[i].Store(ml)
			changed = true
		}
	}
	if changed {
		r.publish()
	}
}

func (r *parRun) quietQueues() bool {
	for i := range r.m.outQs {
		if r.m.outQs[i].Len() > 0 {
			return false
		}
	}
	return true
}

// interruptedNow reports whether the run's cancellation flag is raised.
// It reads the cached pointer, never r.cfg, so core goroutines can poll
// it without touching the (non-atomic) config struct.
func (r *parRun) interruptedNow() bool {
	return r.interrupt != nil && r.interrupt.Load()
}

// tryCheckpoint quiesces the machine at a checkpoint boundary and takes
// the global checkpoint. It returns false when some active core has not
// parked at the boundary yet.
//
//slacksim:hotpath
func (r *parRun) tryCheckpoint() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.parked {
		if r.retired[i].Load() {
			continue
		}
		if !r.parked[i] || r.localTime[i].Load() != r.nextCkpt {
			return false
		}
	}
	// All active cores are parked exactly at the boundary, so their state
	// is stable and the manager can copy it (the paper forks every
	// thread's process here instead) and the recorder's marks are
	// consistent with the snapshot.
	r.takeCheckpoint()
	r.nextCkpt += r.cfg.CheckpointInterval
	return true
}
