package engine

import (
	"cmp"
	"slices"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/event"
	"slacksim/internal/trace"
	"slacksim/internal/violation"
)

// pendingReq is one request in the manager's global queue, stamped with
// its arrival order.
type pendingReq struct {
	req event.Request
	arr uint64
}

// comparePending orders queued requests by (timestamp, core, arrival), the
// target machine's arbitration order used for conservative servicing. It
// is a total order: arrival stamps are unique.
func comparePending(pa, pb pendingReq) int {
	if c := cmp.Compare(pa.req.TS, pb.req.TS); c != 0 {
		return c
	}
	if c := cmp.Compare(pa.req.Core, pb.req.Core); c != 0 {
		return c
	}
	return cmp.Compare(pa.arr, pb.arr)
}

// observation is the manager's reading of the core clocks while no core
// is ticking. On the parallel host each worker folds its own partition at
// the end of a round and the manager merges the partitions; on the
// deterministic host observe takes it once, then detRun.advance carries it
// forward from pick to pick. Either way it equals what observe returns.
type observation struct {
	min       int64  // minimum local time over non-retired cores; -1 when none is left
	atMin     int    // non-retired cores whose local time is min
	local     uint64 // sum of every core's local time
	committed uint64 // committed instructions, all cores
	retired   int    // cores whose program has halted
}

// add folds one core's clock into the observation.
func (o *observation) add(now int64, committed uint64, retired bool) {
	o.local += uint64(now)
	o.committed += committed
	switch {
	case retired:
		o.retired++
	case o.min < 0 || now < o.min:
		o.min, o.atMin = now, 1
	case now == o.min:
		o.atMin++
	}
}

// merge folds another observation into this one: merging the observations
// of disjoint sets of cores gives the observation of their union.
func (o *observation) merge(p observation) {
	o.local += p.local
	o.committed += p.committed
	o.retired += p.retired
	switch {
	case p.min < 0:
		// Every core of p has retired.
	case o.min < 0 || p.min < o.min:
		o.min, o.atMin = p.min, p.atMin
	case p.min == o.min:
		o.atMin += p.atMin
	}
}

// counter is the monotone progress counter: it increases whenever any
// core ticks, commits, or retires. OnProgress subscribers and the parallel
// host's stall watchdog read the same value, so they always agree on
// whether the run is moving.
func (o observation) counter() uint64 {
	return o.local + o.committed + uint64(o.retired)
}

// manager is the simulation manager — the paper's one manager thread: the
// global queue, conservative and eager servicing, the global and max local
// times, the adaptive controller, and checkpoint accounting. Both hosts
// embed it and differ only in how they pace the core threads. A driver
// calls step with an observation of the clocks; the contract is
//
//	observe clocks → drain → service below the observed minimum →
//	adapt → (driver: boundary) → (driver: raise walls)
//
// Both drivers observe only while no core is ticking, so every request a
// core stamped below the observed minimum is already in its out-queue.
type manager struct {
	m   *Machine
	cfg RunConfig

	global int64
	// retired marks cores whose program has halted. The driver that ticks
	// a core sets its flag; a checkpoint copies the mask and a rollback
	// restores it.
	retired []bool

	// gq is the pending set. In slack modes it is in arrival order and
	// every pass serves all of it. In cycle-by-cycle mode drainAll keeps it
	// in arbitration order (a request is sifted into place as it arrives),
	// so a conservative pass serves the prefix below the safe time and a
	// pass with nothing to serve costs one comparison. The GQ is empty or
	// already ordered whenever the mode turns cycle-by-cycle: a rollback
	// restores a checkpointed GQ, which a slack boundary's eager pass left
	// empty and a cycle-by-cycle boundary left ordered, and a sampled run
	// flips right after an eager pass.
	gq       []pendingReq
	arrival  uint64
	drainBuf []event.Request

	meter costMeter
	prog  *progressNotifier

	ctrl      *adaptive.Controller
	bound     int64
	lastAdapt int64

	// nextCkpt is the next checkpoint boundary (0 = no checkpointing);
	// snap is the live checkpoint, nil until the first one is taken.
	nextCkpt  int64
	snap      *globalSnapshot
	ckpts     int
	ckptWords int64

	// Mode overrides and the rollback trigger, set only by the
	// deterministic driver: below replayUntil the run replays
	// cycle-by-cycle after a rollback; fastForward is a sampled run's
	// functional interval (unbounded slack); pendingRollback reports a
	// selected violation to the driver. The parallel host never arms them
	// (RunParallel rejects Rollback and Sampling).
	replayUntil     int64
	fastForward     bool
	pendingRollback bool
}

// newManager validates cfg and performs the run set-up both hosts share:
// controller, violation selection and interval tracking, tracer,
// recorders, and the first checkpoint boundary.
func newManager(m *Machine, cfg RunConfig) (manager, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return manager{}, err
	}
	g := manager{
		m:        m,
		cfg:      cfg,
		bound:    cfg.Scheme.Bound,
		retired:  make([]bool, m.NumCores()),
		prog:     newProgressNotifier(cfg),
		nextCkpt: cfg.CheckpointInterval,
	}
	if cfg.Scheme.Kind == Adaptive {
		ctrl, err := adaptive.New(cfg.Scheme.Adaptive)
		if err != nil {
			return manager{}, err
		}
		ctrl.SetPolicy(cfg.AdaptivePolicy)
		g.ctrl = ctrl
		g.bound = ctrl.Bound()
	}
	if len(cfg.TrackIntervals) > 0 {
		m.Detector().TrackIntervals(cfg.TrackIntervals...)
	}
	if len(cfg.Selected) > 0 {
		m.Detector().Select(cfg.Selected...)
	}
	// On the parallel host the event ring is written only between rounds
	// and read again only after the run's goroutines have joined, so it
	// needs no locking.
	m.unc.SetTracer(cfg.Tracer)
	if cfg.MemRecorder != nil {
		// Cores clear the recorder on Reset, so a pooled machine never
		// leaks one into the next run.
		for _, c := range m.cores {
			c.SetRecorder(cfg.MemRecorder)
		}
	}
	return g, nil
}

// mode returns the effective scheme kind, accounting for cycle-by-cycle
// replay after a rollback and for a sampled run's fast-forward intervals
// (warmed functional mode: unbounded slack, the deterministic host's drift
// cap still bounds core spread).
func (g *manager) mode() SchemeKind {
	if g.replayUntil > 0 && g.global < g.replayUntil {
		return CC
	}
	if g.fastForward {
		return Unbounded
	}
	return g.cfg.Scheme.Kind
}

// maxLocalTime computes the current max local time shared by all cores (every
// scheme here is symmetric), clamped to the simulation horizon and to the
// next checkpoint boundary, so no core ever ticks past MaxCycles and a
// global checkpoint can be taken with all clocks equal.
func (g *manager) maxLocalTime() int64 {
	ml := maxLocalFor(g.mode(), g.global, g.bound, g.cfg.Scheme.Quantum)
	if ml > g.cfg.MaxCycles {
		ml = g.cfg.MaxCycles
	}
	if g.nextCkpt > 0 && ml > g.nextCkpt {
		ml = g.nextCkpt
	}
	return ml
}

// observe reads the core clocks directly; drivers call it only while no
// core is ticking.
func (g *manager) observe() observation {
	o := observation{min: -1}
	for i, c := range g.m.cores {
		o.add(c.Now(), c.Committed(), g.retired[i])
	}
	return o
}

// done reports whether the run is over given the clocks in o.
func (g *manager) done(o observation) bool {
	if g.global >= g.cfg.MaxCycles {
		return true
	}
	if g.cfg.MaxInstructions > 0 && o.committed >= g.cfg.MaxInstructions {
		return true
	}
	return o.retired == g.m.NumCores()
}

// recomputeGlobal sets global time to the minimum local time of active
// cores (global never decreases except across a rollback restore).
func (g *manager) recomputeGlobal(o observation) {
	if o.min >= 0 {
		g.global = o.min
	}
}

// step is one manager pass over the driver's observation of the clocks;
// see the manager type for the contract. Adaptation is skipped when a
// selected violation fired: the driver rolls back as soon as the manager
// detects one (the paper's recipe), and the bound belongs to the timeline
// that survives.
func (g *manager) step(o observation) {
	g.recomputeGlobal(o)
	g.drainAll()
	g.settle(o)
}

// settle is the rest of a step once the GQ holds every request the cores
// have issued: service, progress, adaptation.
func (g *manager) settle(o observation) {
	g.service()
	g.prog.maybe(g.global, o.committed, o.counter())
	if !g.pendingRollback {
		g.adapt()
	}
}

// flush services the trailing requests of a finished run so they are
// reflected in the statistics.
func (g *manager) flush(o observation) {
	g.recomputeGlobal(o)
	g.drainAll()
	g.serviceAll()
}

// drainAll merges every core's OutQ into the GQ.
func (g *manager) drainAll() { g.drainCores(0, len(g.m.outQs)) }

// drainCores merges the OutQs of cores lo..hi-1 into the GQ, stamping
// arrival order (one DrainInto per queue into a reused buffer: no
// allocations). In cycle-by-cycle mode each request is sifted down to its
// place in arbitration order; arrivals carry the latest timestamps, so the
// sift is nearly always zero or one step.
//
//slacksim:hotpath
func (g *manager) drainCores(lo, hi int) {
	ordered := g.mode() == CC
	for _, q := range g.m.outQs[lo:hi] {
		if q.Len() == 0 {
			// The common case by far (the deterministic host steps after
			// every chunk of one core): skip the call.
			continue
		}
		g.drainBuf = q.DrainInto(g.drainBuf[:0])
		for _, req := range g.drainBuf {
			g.arrival++
			g.gq = append(g.gq, pendingReq{req: req, arr: g.arrival}) //lint:allow hotpathalloc -- gq's backing array is reused for the whole run (service truncates or compacts in place); growth is amortized
			if !ordered {
				continue
			}
			for i := len(g.gq) - 1; i > 0 && comparePending(g.gq[i], g.gq[i-1]) < 0; i-- {
				g.gq[i], g.gq[i-1] = g.gq[i-1], g.gq[i]
			}
		}
	}
}

// service runs the manager: eagerly in slack modes (arrival order), or
// conservatively in CC mode (timestamp order, only events that can no
// longer be preceded).
func (g *manager) service() {
	if g.mode() == CC {
		g.serviceConservative(g.global)
		return
	}
	for _, p := range g.gq {
		g.serveOne(p.req)
	}
	g.gq = g.gq[:0]
}

// serviceConservative services queued requests with TS strictly below
// safeTime in (TS, core, arrival) order — the prefix of the GQ, which
// cycle-by-cycle mode keeps in that order; later-timestamped requests stay
// queued because a slower core could still issue an earlier one.
func (g *manager) serviceConservative(safeTime int64) {
	n := 0
	for n < len(g.gq) && g.gq[n].req.TS < safeTime {
		g.serveOne(g.gq[n].req)
		n++
	}
	if n > 0 {
		// Compact in place instead of re-slicing so the backing array's
		// capacity is never abandoned.
		g.gq = g.gq[:copy(g.gq, g.gq[n:])]
	}
}

// serviceAll flushes every queued request in arbitration order regardless
// of safety (used when the run is over; a slack run's GQ is in arrival
// order until here).
func (g *manager) serviceAll() {
	slices.SortFunc(g.gq, comparePending)
	g.serviceConservative(unboundedSentinel)
}

// serveOne services one request and, on a speculative run outside replay,
// raises pendingRollback when it produced a selected violation.
func (g *manager) serveOne(req event.Request) {
	armed := g.cfg.Rollback && g.replayUntil == 0
	var before uint64
	if armed {
		before = g.m.det.SelectedCount()
	}
	g.m.unc.Service(req)
	g.meter.events++
	if g.cfg.MeasureViolations {
		g.meter.violChecked++
	}
	if armed && g.m.det.SelectedCount() > before {
		g.pendingRollback = true
	}
}

// adapt runs the adaptive controller at its period.
func (g *manager) adapt() {
	if g.ctrl == nil || g.mode() == CC {
		return
	}
	if g.global-g.lastAdapt < g.cfg.Scheme.Adaptive.Period {
		return
	}
	g.lastAdapt = g.global
	rate := g.m.det.Rate(g.global)
	before := g.bound
	g.bound = g.ctrl.Update(rate)
	g.meter.adaptOps++
	if g.bound != before && g.cfg.Tracer.Enabled() {
		g.cfg.Tracer.Addf(g.global, -1, trace.BoundChange,
			"rate=%.5f bound %d -> %d", rate, before, g.bound)
	}
}

// results assembles the Results of a finished run on the named host.
func (g *manager) results(host string, wall time.Duration) Results {
	m := g.m
	det := m.Detector()
	sc := m.Sync().Counts()
	res := Results{
		Workload: m.WorkloadName(),
		Scheme:   g.cfg.Scheme.Name(),
		Host:     host,

		Cycles:    g.global,
		Committed: m.committed(),

		BusViolations:      det.Count(violation.Bus),
		MapViolations:      det.Count(violation.Map),
		WorkloadViolations: det.Count(violation.Workload),
		ViolationRate:      det.Rate(g.global),
		BusRate:            det.RateOf(violation.Bus, g.global),
		MapRate:            det.RateOf(violation.Map, g.global),
		Intervals:          det.Intervals(g.global),

		HostWorkUnits: g.meter.total(),
		WallClock:     wall,
		Suspensions:   g.meter.suspensions,
		EventsServed:  g.meter.events,

		Checkpoints:     g.ckpts,
		CheckpointWords: g.ckptWords,

		LockAcquires:    sc.Acquires,
		LockContended:   sc.Contended,
		BarrierEpisodes: sc.BarrierEpisodes,
	}
	for _, c := range m.cores {
		res.PerCore = append(res.PerCore, c.Stats())
	}
	if res.Committed > 0 {
		res.CPI = float64(res.Cycles) * float64(m.NumCores()) / float64(res.Committed)
	}
	if g.ctrl != nil {
		res.FinalBound = g.ctrl.Bound()
		res.MeanBound = g.ctrl.MeanBound()
		res.Adjustments = g.ctrl.Adjustments
	}
	return res
}
