package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/sampling"
	"slacksim/internal/trace"
	"slacksim/internal/violation"
)

// RunConfig parameterizes one simulation run.
type RunConfig struct {
	// Scheme is the synchronization scheme.
	Scheme Scheme
	// MaxInstructions stops the run once the machine has committed this
	// many instructions in total (0 = run until every program halts).
	MaxInstructions uint64
	// MaxCycles is a safety cap on global time (default 1<<40).
	MaxCycles int64
	// Seed drives the deterministic host's scheduling.
	Seed int64
	// MaxChunk caps how many cycles one core runs uninterrupted in the
	// deterministic host (models host scheduling granularity; default 16).
	MaxChunk int64
	// HostDriftCap bounds how far any core's clock may run ahead of the
	// slowest core, independently of the slack bound, on both hosts
	// (default 64). It models host threads that execute at roughly equal
	// speeds with bounded transient drift: below the cap the slack bound
	// is what limits reordering (violations grow with the bound); beyond
	// it the host's own pacing dominates (the violation-rate plateau of
	// the paper's Figure 3). The deterministic host applies it when it
	// picks a core; the parallel host caps every round's wall at global
	// time plus the cap, which is what keeps unbounded and lax-p2p rounds
	// finite there.
	HostDriftCap int64
	// CheckpointInterval, when positive, takes a global checkpoint every
	// that many simulated cycles.
	CheckpointInterval int64
	// Rollback enables full speculative slack simulation: on a selected
	// violation the run restores the last checkpoint and replays
	// cycle-by-cycle to the next boundary (forward progress), then resumes
	// the slack scheme.
	Rollback bool
	// DeepCheckpoint is ignored: every checkpoint is a full copy. The
	// field remains only because the benchmark under bench/ sets it by
	// name for its checkpoint.deep_over_incremental metric; delete it
	// together with that metric.
	DeepCheckpoint bool
	// Selected restricts which violation types steer adaptation and
	// trigger rollback (nil = all types).
	Selected []violation.Type
	// TrackIntervals enables Table 3/4 interval statistics for the given
	// interval lengths.
	TrackIntervals []int64
	// MeasureViolations charges the violation-detection overhead to the
	// host cost model (it is implied by Adaptive, Rollback and interval
	// tracking; set it to model an instrumented bounded run, as in the
	// Figure 3 experiments).
	MeasureViolations bool
	// AdaptivePolicy selects the controller's bound-adjustment policy
	// (AIMD by default; AIAD exists for the ablation study).
	AdaptivePolicy adaptive.Policy
	// Tracer, when non-nil, records serviced requests, violations, bound
	// changes, checkpoints and rollbacks for post-run inspection.
	Tracer *trace.Ring
	// MemRecorder, when non-nil, captures every core's architectural
	// retire stream (loads, stores, lock/barrier ops, halts, in commit
	// order) for trace record/replay. Works on both hosts and through
	// checkpoint/rollback cycles.
	MemRecorder MemRecorder
	// Sampling, when non-nil, enables Pac-Sim-style interval sampling:
	// periodic detailed intervals under cycle-accurate CC pacing, the
	// rest fast-forwarded through warmed functional mode (unbounded
	// slack), with an extrapolated cycle estimate and confidence bound in
	// Results.Sampling. Deterministic host only; requires the cc scheme
	// and no checkpointing or interval tracking.
	Sampling *sampling.Plan
	// StallTimeout is the parallel host's liveness watchdog budget: if no
	// core makes forward progress (local time, committed instructions, or
	// retirement) for this much wall-clock time, the run is force-stopped
	// and RunParallel returns a *StallError with a structured dump of the
	// pacing state instead of hanging. 0 selects the default (30s);
	// negative disables the watchdog. The deterministic host is
	// single-threaded and cannot stall, so it ignores this.
	StallTimeout time.Duration
	// OnProgress, when non-nil, is called with monotone Progress snapshots
	// as the run advances (at most once per ProgressEvery global cycles).
	// On the parallel host the callback runs on the manager goroutine
	// between rounds, while every other worker waits, so it must be fast
	// and non-blocking.
	OnProgress func(Progress)
	// ProgressEvery is the minimum global-time advance between OnProgress
	// deliveries (default DefaultProgressEvery).
	ProgressEvery int64
	// Interrupt, when non-nil, is an external stop request: once it is
	// set true the run stops at the next pacing step and returns
	// ErrInterrupted. Services use it to cancel in-flight jobs.
	Interrupt *atomic.Bool
	// SnapshotRequest, when non-nil and set true, asks the run to export
	// its complete state at the next checkpoint boundary: the serialized
	// state is delivered through OnSnapshot and the run returns
	// ErrSnapshotted. The run can then be continued elsewhere with
	// Resume. Requires CheckpointInterval > 0 and the deterministic host
	// (the parallel host ignores it).
	SnapshotRequest *atomic.Bool
	// OnSnapshot receives the serialized run state when a snapshot
	// request fires. Both SnapshotRequest and OnSnapshot must be set for
	// export to happen.
	OnSnapshot func(state []byte)
}

func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 1 << 40
	}
	if cfg.MaxChunk == 0 {
		cfg.MaxChunk = 16
	}
	if cfg.HostDriftCap == 0 {
		cfg.HostDriftCap = 64
	}
	if cfg.Scheme.Kind == Adaptive || cfg.Rollback || len(cfg.TrackIntervals) > 0 {
		cfg.MeasureViolations = true
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	if cfg.Sampling != nil {
		p := *cfg.Sampling
		p.Normalize()
		cfg.Sampling = &p
	}
	return cfg
}

// Validate reports configuration errors.
func (cfg RunConfig) Validate() error {
	if err := cfg.Scheme.Validate(); err != nil {
		return err
	}
	if cfg.MaxChunk < 0 || cfg.MaxCycles < 0 || cfg.HostDriftCap < 0 || cfg.CheckpointInterval < 0 {
		return fmt.Errorf("engine: negative run limits")
	}
	if cfg.Rollback && cfg.CheckpointInterval <= 0 {
		return fmt.Errorf("engine: rollback requires a checkpoint interval")
	}
	if cfg.Sampling != nil {
		if err := cfg.Sampling.Validate(); err != nil {
			return err
		}
		if cfg.Scheme.Kind != CC {
			return fmt.Errorf("engine: sampling requires the cc scheme (detailed intervals are the cycle-accurate reference)")
		}
		if cfg.Rollback || cfg.CheckpointInterval > 0 {
			return fmt.Errorf("engine: sampling cannot be combined with checkpointing")
		}
		if len(cfg.TrackIntervals) > 0 {
			return fmt.Errorf("engine: sampling cannot be combined with interval tracking")
		}
	}
	return nil
}

// detRun is the deterministic host's driver: a seeded scheduler that
// reproducibly emulates host-thread interleaving around the shared
// manager. It owns what only this host has — the scheduler and its drift
// cap, the Lax-P2P gate, rollback and replay, interval sampling, and
// snapshot export.
type detRun struct {
	manager

	rng *rand.Rand
	// rngSrc is rng's underlying source; its draw count is part of the
	// exported run state (Resume fast-forwards a fresh source to it).
	rngSrc *countingSource

	// Lax-P2P state: the next pairwise sync point, the currently chosen
	// partner (-1 = none), and whether the core is currently blocked at a
	// sync (for suspension accounting), per core.
	p2pNext    []int64
	p2pPartner []int
	p2pBlocked []bool

	// runnable is nextCore's list of cores below runCap, in core order;
	// runOK says it is current. It is kept across picks while the cap does
	// not change (only the picked core's clock moves, and it leaves the
	// list in place when it reaches the cap or halts) and rebuilt on a cap
	// change, a rollback or a boundary, and on every Lax-P2P pick. pickAt
	// is the picked core's position in it.
	runnable []int
	runCap   int64
	runOK    bool
	pickAt   int

	// Interval-sampling cursor (nil unless cfg.Sampling is set).
	samp *sampleState

	// Rollback statistics.
	rollbacks int
	wasted    int64
	replayed  int64
}

// init sets the manager up and builds the deterministic driver around it.
// The driver is initialized in place so that Run and Resume keep it on
// their stack.
func (r *detRun) init(m *Machine, cfg RunConfig) error {
	mgr, err := newManager(m, cfg)
	if err != nil {
		return err
	}
	cfg = mgr.cfg
	src := newCountingSource(cfg.Seed)
	*r = detRun{
		manager: mgr,
		rng:     rand.New(src),
		rngSrc:  src,
	}
	if cfg.Sampling != nil {
		r.samp = newSampleState(*cfg.Sampling)
		r.fastForward = !r.samp.detailed
	}
	if cfg.Scheme.Kind == LaxP2P {
		r.p2pNext = make([]int64, m.NumCores())
		r.p2pPartner = make([]int, m.NumCores())
		r.p2pBlocked = make([]bool, m.NumCores())
		for i := range r.p2pNext {
			r.p2pNext[i] = cfg.Scheme.SyncPeriod
			r.p2pPartner[i] = -1
		}
	}
	return nil
}

// Run simulates the machine to completion under cfg on the deterministic
// host and returns the results. The machine must be freshly built or
// freshly reset: a MachinePool recycles machines between runs.
func Run(m *Machine, cfg RunConfig) (Results, error) {
	var r detRun
	if err := r.init(m, cfg); err != nil {
		return Results{}, err
	}
	if r.cfg.Rollback {
		// The initial state is the first recovery point, so a violation
		// before the first boundary can still roll back.
		r.takeCheckpoint()
	}
	return r.run()
}

// run drives the loop to completion and assembles the results.
func (r *detRun) run() (Results, error) {
	start := time.Now() //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	if err := r.loop(); err != nil {
		return Results{}, err
	}
	res := r.results("deterministic", time.Since(start)) //lint:allow determinism -- host wall-time feeds Results.HostDuration (a measurement), never simulated state
	res.Rollbacks = r.rollbacks
	res.WastedCycles = r.wasted
	res.ReplayCycles = r.replayed
	if r.samp != nil {
		res.Sampling = r.samp.finish(r.global, res.Committed)
	}
	return res, nil
}

// MustRun is Run but panics on error.
func MustRun(m *Machine, cfg RunConfig) Results {
	res, err := Run(m, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// pickHook, when non-nil, is called at every pick with the observation the
// driver carries and the pick's max local time, before the picked core
// ticks. Tests use it to check the carried state against a rescan. Always
// nil in production runs.
var pickHook func(r *detRun, o observation, ml int64)

// loop paces the run one pick at a time. It observes the clocks once,
// then carries the observation forward: after a chunk only the picked
// core's clock, commit count and retirement can have changed, so advance
// folds in its deltas, and servicing moves no clock, so the manager's step
// and the next done check read the carried value. Only a rollback or a
// boundary, which can restore clocks, takes a fresh one.
func (r *detRun) loop() error {
	o := r.rescan()
	for !r.done(o) {
		if r.cfg.interrupted() {
			return ErrInterrupted
		}
		ml := r.maxLocalTime()
		pick := r.nextCore(ml)
		if pick < 0 {
			// Everyone is at the wall: either a checkpoint boundary or an
			// inconsistency (global should always free the slowest core).
			if r.nextCkpt > 0 && r.global == r.nextCkpt {
				if err := r.atBoundary(); err != nil {
					return err
				}
				o = r.rescan()
				continue
			}
			return fmt.Errorf("engine: no runnable core at global=%d maxLocal=%d", r.global, ml)
		}
		if pickHook != nil {
			view := *r // handing the hook r itself would move every run's driver to the heap
			pickHook(&view, o, ml)
		}
		c := r.m.cores[pick]
		was, committed := c.Now(), c.Committed()
		budget := ml - was
		chunk := int64(1)
		if r.cfg.MaxChunk > 1 {
			chunk += r.rng.Int63n(r.cfg.MaxChunk)
		}
		if chunk > budget {
			chunk = budget
		}
		for k := int64(0); k < chunk; k++ {
			c.Tick()
			r.meter.coreCycles++
		}
		if c.Now() >= ml {
			r.meter.suspensions++
		}
		if c.Halted() {
			r.retired[pick] = true
		}
		if c.Now() >= r.runCap || c.Halted() {
			// Drop the picked core in place, keeping core order.
			for k := r.pickAt + 1; k < len(r.runnable); k++ {
				r.runnable[k-1] = r.runnable[k]
			}
			r.runnable = r.runnable[:len(r.runnable)-1]
		}
		r.advance(&o, pick, was, committed)

		r.step(o)
		if r.samp != nil {
			r.sampleStep(o.committed)
		}
		if r.pendingRollback {
			r.doRollback()
			o = r.rescan()
			continue
		}
		if r.nextCkpt > 0 && r.global == r.nextCkpt && r.allAtBoundary() {
			if err := r.atBoundary(); err != nil {
				return err
			}
			o = r.rescan()
		}
	}
	r.flush(o)
	return nil
}

// rescan observes every clock afresh and drops the runnable list, for
// the start of a run and after a rollback or a boundary.
func (r *detRun) rescan() observation {
	r.runOK = false
	return r.observe()
}

// advance folds core i's chunk into o: its clock moved on from was, its
// commit count from committed, and it may have retired. The minimum moves
// only when the last core at it moves, which is the one case that
// rescans the clocks.
//
//slacksim:hotpath
func (r *detRun) advance(o *observation, i int, was int64, committed uint64) {
	c := r.m.cores[i]
	o.local += uint64(c.Now() - was)
	o.committed += c.Committed() - committed
	if r.retired[i] {
		o.retired++
	}
	if was == o.min {
		if o.atMin--; o.atMin == 0 {
			*o = r.observe()
		}
	}
}

// nextCore picks a uniformly random core among those below both the
// scheme's wall and the host drift cap. Random picks make each core's
// clock a random walk (the ordering jitter that causes violations); the
// drift cap keeps the walk within what a real host's roughly-equal thread
// speeds would allow. It returns -1 when no core can run at all.
func (r *detRun) nextCore(ml int64) int {
	cap := ml
	if d := r.global + r.cfg.HostDriftCap; d < cap {
		cap = d
	}
	// With a single core there is no partner to pick (Intn(0) would
	// panic); the Lax-P2P gate degenerates to free-running, as on the
	// parallel host. The gate draws from the RNG as it is evaluated, so a
	// Lax-P2P run evaluates it for every core at every pick.
	lax := r.cfg.Scheme.Kind == LaxP2P && r.m.NumCores() > 1
	if lax || !r.runOK || cap != r.runCap {
		runnable := r.runnable[:0]
		for i, c := range r.m.cores {
			if !r.retired[i] && c.Now() < cap && (!lax || r.p2pClear(i)) {
				runnable = append(runnable, i)
			}
		}
		r.runnable, r.runCap, r.runOK = runnable, cap, true
	}
	if len(r.runnable) == 0 {
		// The slowest active core always sits below global+drift, so this
		// only happens at a scheme wall (checkpoint boundary or a bug).
		return -1
	}
	r.pickAt = r.rng.Intn(len(r.runnable))
	return r.runnable[r.pickAt]
}

// p2pClear evaluates core i's Lax-P2P gate: away from a sync point it is
// free; at one it picks a random partner (kept until the sync resolves)
// and may proceed only when it is no more than P2PMaxAhead cycles past
// the partner. The globally slowest core is never gated, so the scheme is
// deadlock-free. Only a lax-p2p run on two or more cores calls it.
func (r *detRun) p2pClear(i int) bool {
	c := r.m.cores[i]
	if c.Now() < r.p2pNext[i] {
		return true
	}
	if r.p2pPartner[i] < 0 {
		p := r.rng.Intn(r.m.NumCores() - 1)
		if p >= i {
			p++
		}
		r.p2pPartner[i] = p
	}
	p := r.p2pPartner[i]
	if !r.retired[p] && r.m.cores[p].Now() < c.Now()-r.cfg.Scheme.P2PMaxAhead {
		if !r.p2pBlocked[i] {
			r.p2pBlocked[i] = true
			r.meter.suspensions++
		}
		return false
	}
	r.p2pNext[i] += r.cfg.Scheme.SyncPeriod
	r.p2pPartner[i] = -1
	r.p2pBlocked[i] = false
	return true
}

// allAtBoundary reports whether every active core's clock equals the next
// checkpoint boundary.
func (r *detRun) allAtBoundary() bool {
	for i, c := range r.m.cores {
		if !r.retired[i] && c.Now() != r.nextCkpt {
			return false
		}
	}
	return true
}

// atBoundary handles a checkpoint boundary: quiesce the manager, either
// roll back (if a selected violation fired during the elapsed interval)
// or take a fresh global checkpoint, then advance the boundary.
func (r *detRun) atBoundary() error {
	r.drainAll()
	r.service()
	if r.pendingRollback {
		r.doRollback()
		return nil
	}
	if r.replayUntil > 0 && r.global >= r.replayUntil {
		r.replayed += r.replayUntil - r.snapGlobal()
		r.replayUntil = 0
	}
	r.takeCheckpoint()
	r.nextCkpt += r.cfg.CheckpointInterval
	if r.cfg.snapshotRequested() {
		// The run is quiesced and checkpointed: export the state and stop.
		state, err := r.exportSnapshot()
		if err != nil {
			return err
		}
		r.cfg.OnSnapshot(state)
		return ErrSnapshotted
	}
	return nil
}

func (r *detRun) snapGlobal() int64 {
	if r.snap == nil {
		return 0
	}
	return r.snap.global
}
