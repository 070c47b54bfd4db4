package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slacksim/internal/core"
	"slacksim/internal/event"
)

// p2pState is one core's Lax-P2P bookkeeping, owned by the worker whose
// partition holds the core.
type p2pState struct {
	rng         *rand.Rand
	next        int64
	partner     int
	blocked     bool
	suspensions uint64
}

// parRun is the goroutine-parallel host's driver: a bulk-synchronous worker
// pool (Manticore's static schedule). P = min(GOMAXPROCS, cores) workers
// each own a static, contiguous partition of the cores; worker 0 is the
// calling goroutine, which also runs the embedded manager. One round is
//
//	manager sets the wall and releases → every worker ticks its cores up
//	to the wall (or until they halt or are Lax-P2P-gated), summarises its
//	partition and arrives → manager merges the summaries, drains the
//	partitions that reported a request, steps, checkpoints at a boundary,
//	checks done
//
// Round contract (DESIGN.md §8). While a round runs, a worker touches only
// its own cores, their queue ends, their retired flags, their Lax-P2P state
// and its own arrival slot, and reads only what the manager fixed before
// the release: the wall, the observed partner clocks, the scheme. Between
// rounds only the manager runs, and it reads no other partition's clocks
// except for the Lax-P2P view (endRound) and a checkpoint's capture. A
// round costs two cache-line hand-offs: the release line (round and wall),
// which only the manager writes, and one arrival slot per worker, which
// only that worker writes. Both are published by atomics, so a worker's
// ticks and summary happen before the manager reads its slot, and the
// manager's servicing happens before the next round's ticks.
type parRun struct {
	manager

	workers int

	// p2p is per-core Lax-P2P state and seen the clocks the manager
	// observed at the start of the round (unboundedSentinel for a retired
	// core, which gates no one); both nil unless the scheme is lax-p2p on
	// more than one core.
	p2p  []p2pState
	seen []int64

	// slots holds one arrival slot per worker; the manager's own, slot 0,
	// is written inline and never waited on.
	slots []arrival

	// The release line: only the manager writes it, every worker polls it.
	// Full-line pads on both sides keep it apart from the manager's other
	// fields and from stop whatever the struct's alignment.
	_     [cacheLine]byte
	round atomic.Uint64 // rounds released so far
	wall  int64         // this round's max local time, fixed before the release
	_     [cacheLine]byte
	stop  atomic.Bool // sticky; ends every wait
	_     [cacheLine]byte

	// progress is the last observation's counter, published for the
	// watchdog; stalled records that the watchdog force-stopped the run.
	progress atomic.Uint64
	stalled  atomic.Bool
}

// cacheLine is the length of the pads that keep hot words apart.
const cacheLine = 64

// summary is a partition's state at the end of a round, folded by the
// worker that ticked it: the observation of its cores, how many active
// cores reached the wall (the round's suspensions), and whether any of
// its out-queues holds a request.
type summary struct {
	obs     observation
	parked  uint64
	pending bool
}

// merge folds another partition's summary into s.
func (s *summary) merge(t summary) {
	s.obs.merge(t.obs)
	s.parked += t.parked
	s.pending = s.pending || t.pending
}

// arrival is one worker's slot: the summary of its last round, then that
// round's number. Storing the number is the arrival, and the manager's
// load of it synchronises with the store, so the summary and every tick
// before it happen before the manager reads them. Only the worker writes
// its slot; the trailing pad keeps two slots off one cache line whatever
// the slice's alignment.
type arrival struct {
	sum   summary
	round atomic.Uint64 // rounds this worker has finished
	_     [cacheLine]byte
}

// shard is a worker's static partition, cores lo..lo+len(cores)-1: the
// cores, their retired flags and their out-queues. A worker captures it
// once, so a round reads no field the manager writes between rounds.
type shard struct {
	lo      int
	cores   []*core.Core
	retired []bool
	outQs   []*event.Queue[event.Request]
}

// roundHook, when non-nil, is called by the manager after every round,
// once every worker has arrived, with the merged summary. Tests use it to
// check the summary against a rescan. Always nil in production runs.
var roundHook func(r *parRun, sum summary)

// wedgeHook, when non-nil, is called by every worker other than the
// manager at the start of each round. Tests use it to wedge one worker and
// prove the watchdog's force-stop releases the manager's barrier wait.
// Always nil in production runs.
var wedgeHook func(worker int, stop *atomic.Bool)

// barrierSpins is how many polls a barrier wait makes before each further
// poll yields the processor. With no lock inside a round, a peer usually
// arrives within a few microseconds: 1024 polls cover that wait where 64
// yielded first, and 16384 gained nothing more (DESIGN.md §8), so the
// smaller budget gives a shared host its processor back sooner.
const barrierSpins = 1024

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
	r := &parRun{manager: mgr, workers: min(runtime.GOMAXPROCS(0), n)}
	r.slots = make([]arrival, r.workers)
	// Lax-P2P pairing needs a partner to pick; on a single-core machine the
	// gate degenerates to free-running (and Intn(0) would panic).
	if r.cfg.Scheme.Kind == LaxP2P && n > 1 {
		r.p2p = make([]p2pState, n)
		r.seen = make([]int64, n)
		for i := range r.p2p {
			r.p2p[i] = p2pState{
				rng:     rand.New(rand.NewSource(r.cfg.Seed + int64(i)*7919)),
				next:    r.cfg.Scheme.SyncPeriod,
				partner: -1,
			}
		}
	}

	start := time.Now() //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	var wg sync.WaitGroup
	for w := 1; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(w)
		}()
	}
	var wdDone chan struct{}
	if r.cfg.StallTimeout > 0 {
		wdDone = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.watchdog(wdDone)
		}()
	}
	r.managerLoop()
	r.stop.Store(true)
	if wdDone != nil {
		close(wdDone)
	}
	wg.Wait()
	if r.stalled.Load() {
		serr := r.stallDump()
		// Every goroutine has joined, so the ring is quiescent: the last
		// events before the wedge are the first thing a diagnosis needs.
		serr.attachTrace(cfg.Tracer)
		return Results{}, serr
	}
	if cfg.interrupted() {
		// The interrupt raced the natural end of the run; either way the
		// caller asked for cancellation, so the outcome is ErrInterrupted.
		return Results{}, ErrInterrupted
	}
	// Trailing work issued in the last round.
	r.flush(r.observe())
	for i, c := range m.cores {
		r.meter.coreCycles += c.Stats().Cycles
		if r.p2p != nil {
			r.meter.suspensions += r.p2p[i].suspensions
		}
	}
	return r.results("parallel", time.Since(start)), nil //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
}

// managerLoop is worker 0: it runs rounds until the run is done,
// interrupted, or force-stopped by the watchdog. The wall is the scheme's
// max local time capped at global + HostDriftCap, the same drift cap the
// deterministic host applies, so unbounded and lax-p2p rounds stay short.
func (r *parRun) managerLoop() {
	own := r.shard(0)
	for !r.stop.Load() {
		r.wall = min(r.maxLocalTime(), r.global+r.cfg.HostDriftCap)
		gen := r.round.Add(1)
		r.slots[0].sum = r.tick(own, r.wall)
		sum := r.slots[0].sum
		for w := 1; w < r.workers; w++ {
			a := &r.slots[w]
			if !r.wait(&a.round, gen) {
				return
			}
			sum.merge(a.sum)
		}
		if roundHook != nil {
			roundHook(r, sum)
		}
		r.meter.suspensions += sum.parked
		r.endRound()
		r.recomputeGlobal(sum.obs)
		if sum.pending {
			for w := range r.slots {
				if r.slots[w].sum.pending {
					r.drainCores(r.span(w))
				}
			}
		}
		r.settle(sum.obs)
		r.progress.Store(sum.obs.counter())
		if r.cfg.interrupted() || r.done(sum.obs) {
			return
		}
		if r.nextCkpt > 0 && r.global == r.nextCkpt {
			// The wall never passes the boundary, so every active core is at
			// it, and every worker is waiting for the next release: the
			// machine is quiescent without any further handshake.
			r.takeCheckpoint()
			r.nextCkpt += r.cfg.CheckpointInterval
		}
	}
}

// worker is worker w ≥ 1: one partition ticked per released round, then
// its summary and the round's number stored in its slot.
func (r *parRun) worker(w int) {
	own, a := r.shard(w), &r.slots[w]
	for gen := uint64(1); r.wait(&r.round, gen); gen++ {
		if wedgeHook != nil {
			wedgeHook(w, &r.stop)
		}
		a.sum = r.tick(own, r.wall)
		a.round.Store(gen)
	}
}

// wait polls x until it reaches want (true) or the run is stopped (false).
// After barrierSpins polls every poll yields, so a waiter never holds a
// processor the goroutine it waits for needs: P workers on fewer free CPUs,
// or two runs sharing the host, still make progress.
//
//slacksim:hotpath
func (r *parRun) wait(x *atomic.Uint64, want uint64) bool {
	for spins := 0; x.Load() < want; spins++ {
		if r.stop.Load() {
			return false
		}
		if spins >= barrierSpins {
			runtime.Gosched()
		}
	}
	return true
}

// span returns worker w's static partition: cores lo..hi-1.
func (r *parRun) span(w int) (lo, hi int) {
	n := len(r.m.cores)
	return w * n / r.workers, (w + 1) * n / r.workers
}

// shard captures worker w's partition.
func (r *parRun) shard(w int) shard {
	lo, hi := r.span(w)
	return shard{lo: lo, cores: r.m.cores[lo:hi], retired: r.retired[lo:hi], outQs: r.m.outQs[lo:hi]}
}

// tick advances a partition to the wall and summarises it. A core stops
// early when it halts or its Lax-P2P gate closes; an active core that
// reached the wall waits for the round's end, one suspension, as on the
// deterministic host.
func (r *parRun) tick(s shard, wall int64) summary {
	sum := summary{obs: observation{min: -1}}
	for k, c := range s.cores {
		if !s.retired[k] {
			for c.Now() < wall && (r.p2p == nil || r.p2pGate(s.lo+k, c.Now())) {
				c.Tick()
				if c.Halted() {
					s.retired[k] = true
					break
				}
			}
		}
		now := c.Now()
		sum.obs.add(now, c.Committed(), s.retired[k])
		if !s.retired[k] && now >= wall {
			sum.parked++
		}
		if s.outQs[k].Len() > 0 {
			sum.pending = true
		}
	}
	return sum
}

// endRound takes the Lax-P2P gate's next view of the clocks, the one read
// of other partitions' clocks between rounds; a retired core reads as
// unbounded.
func (r *parRun) endRound() {
	if r.seen == nil {
		return
	}
	for i, c := range r.m.cores {
		r.seen[i] = c.Now()
		if r.retired[i] {
			r.seen[i] = unboundedSentinel
		}
	}
}

// p2pGate evaluates core i's Lax-P2P synchronization: true when the core
// may advance. At each sync point it picks a random partner and waits
// while it is more than P2PMaxAhead cycles past the partner's clock as
// observed at the start of the round. The slowest core of a round is never
// gated, so every round advances global time.
func (r *parRun) p2pGate(i int, now int64) bool {
	s := &r.p2p[i]
	if now < s.next {
		return true
	}
	if s.partner < 0 {
		p := s.rng.Intn(len(r.p2p) - 1)
		if p >= i {
			p++
		}
		s.partner = p
	}
	if r.seen[s.partner] < now-r.cfg.Scheme.P2PMaxAhead {
		if !s.blocked {
			s.blocked = true
			s.suspensions++
		}
		return false
	}
	s.next += r.cfg.Scheme.SyncPeriod
	s.partner = -1
	s.blocked = false
	return true
}
