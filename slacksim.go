// Package slacksim is a parallel simulator of chip multiprocessors (CMPs)
// on CMPs with adaptive and speculative slack, reproducing Chen, Dabbiru,
// Annavaram and Dubois, "Adaptive and Speculative Slack Simulations of
// CMPs on CMPs" (MoBS 2010).
//
// The simulated target is a snooping-bus CMP of out-of-order cores with
// private MESI L1s and a shared L2. Each target core is simulated by its
// own simulation thread and one simulation manager thread models the
// shared memory system and paces the simulation. The slack between any
// two cores' clocks is governed by a scheme: cycle-by-cycle (exact),
// bounded slack, unbounded slack, quantum, or adaptive slack that holds a
// target violation rate; periodic checkpoints with rollback implement
// speculative slack simulation.
//
// Quick start:
//
//	sim, err := slacksim.New(slacksim.Config{
//		Workload: "fft",
//		Scheme:   slacksim.Schemes.Bounded(10),
//	})
//	if err != nil { ... }
//	res, err := sim.Run()
//	fmt.Println(res)
package slacksim

import (
	"fmt"
	"sync/atomic"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/engine"
	"slacksim/internal/memtrace"
	"slacksim/internal/sampling"
	"slacksim/internal/synth"
	"slacksim/internal/trace"
	"slacksim/internal/violation"
	"slacksim/internal/workload"
)

// Results summarizes a finished run; see the fields for the simulated
// execution time, violation counts and rates, host costs, and
// checkpoint/rollback accounting.
type Results = engine.Results

// Scheme is a fully-parameterized synchronization scheme between
// simulation threads.
type Scheme = engine.Scheme

// AdaptiveConfig parameterizes the adaptive slack controller.
type AdaptiveConfig = adaptive.Config

// IntervalReport carries per-checkpoint-interval violation statistics
// (fraction of intervals violating, mean first-violation distance).
type IntervalReport = violation.IntervalReport

// Progress is a monotone snapshot of a run's forward motion, delivered
// through Config.OnProgress (see engine.Progress).
type Progress = engine.Progress

// SynthConfig parameterizes the synthetic workload generator (see
// internal/synth) for Config.Workload = "synth".
type SynthConfig = synth.Config

// SamplingPlan configures interval sampling for Config.Sampling.
type SamplingPlan = sampling.Plan

// SamplingReport is the interval-sampling estimate attached to
// Results.Sampling: estimated cycles with a confidence bound.
type SamplingReport = sampling.Report

// StallError is the structured no-forward-progress failure returned by
// parallel runs whose stall watchdog fired.
type StallError = engine.StallError

// ErrInterrupted reports that a run was stopped early via Config.Interrupt.
var ErrInterrupted = engine.ErrInterrupted

// ErrSnapshotted reports that a run stopped at a checkpoint boundary to
// export its state via Config.SnapshotRequest; continue it elsewhere with
// Simulation.Resume.
var ErrSnapshotted = engine.ErrSnapshotted

// Policy selects the adaptive controller's bound-adjustment policy.
type Policy = adaptive.Policy

// Adjustment policies for Config.AdaptivePolicy.
const (
	// AIMD is additive increase, multiplicative decrease (the default).
	AIMD = adaptive.AIMD
	// AIAD is additive both ways (the ablation alternative).
	AIAD = adaptive.AIAD
)

// Schemes groups the scheme constructors.
var Schemes = struct {
	// CC is exact cycle-by-cycle simulation, the gold standard.
	CC func() Scheme
	// Bounded keeps all core clocks within the given slack bound.
	Bounded func(bound int64) Scheme
	// Unbounded lets every core run free (fastest, least accurate).
	Unbounded func() Scheme
	// Quantum barriers all cores every q cycles.
	Quantum func(q int64) Scheme
	// Adaptive steers the slack bound to hold a target violation rate.
	Adaptive func(cfg AdaptiveConfig) Scheme
	// AdaptiveDefault is Adaptive with the paper's base configuration
	// (0.01% target, 5% band).
	AdaptiveDefault func() Scheme
	// LaxP2P is Graphite-style random-pairwise synchronization (the
	// related-work scheme the paper planned to explore): every period
	// cycles a core syncs with one random partner, waiting when more
	// than maxAhead cycles past it.
	LaxP2P func(period, maxAhead int64) Scheme
}{
	CC:        engine.CycleByCycle,
	Bounded:   engine.BoundedSlack,
	Unbounded: engine.UnboundedSlack,
	Quantum:   engine.QuantumScheme,
	Adaptive:  engine.AdaptiveSlack,
	AdaptiveDefault: func() Scheme {
		return engine.AdaptiveSlack(adaptive.DefaultConfig())
	},
	LaxP2P: engine.LaxP2PScheme,
}

// Config describes a simulation to construct with New.
type Config struct {
	// Cores is the number of target cores (default 8, the paper's CMP).
	Cores int
	// Workload names a built-in benchmark ("fft", "lu", "barnes",
	// "water", "falseshare", "private", ...), or one of the scenario
	// kinds: "synth" (requires Synth) and "trace" (requires TraceData).
	Workload string
	// Scale multiplies the workload's input size (default 1, the quick
	// size; larger scales approach the paper's inputs).
	Scale int
	// Synth parameterizes the synthetic workload generator; used when
	// Workload is "synth".
	Synth *synth.Config
	// TraceData is an encoded memory trace (internal/memtrace format) to
	// replay; used when Workload is "trace". The machine must have the
	// trace's core count.
	TraceData []byte
	// Sampling, when non-nil, enables interval sampling: detailed
	// intervals under cycle-accurate CC pacing, fast-forward through
	// warmed functional mode for the rest, and an estimated cycle count
	// with a confidence bound in Results.Sampling. Deterministic host
	// with the cc scheme only.
	Sampling *sampling.Plan
	// MemRecorder, when non-nil, captures every core's architectural
	// retire stream during the run (use memtrace.NewRecorder); encode it
	// afterwards to obtain a replayable trace.
	MemRecorder engine.MemRecorder
	// Scheme is the slack scheme (default cycle-by-cycle).
	Scheme Scheme
	// MaxInstructions stops the run after this many total committed
	// instructions (0 = run the programs to completion).
	MaxInstructions uint64
	// Seed drives the deterministic host's scheduling (ignored by the
	// parallel host).
	Seed int64
	// CheckpointInterval, when positive, takes a global checkpoint every
	// that many simulated cycles.
	CheckpointInterval int64
	// Rollback enables speculative slack simulation: restore the last
	// checkpoint on a violation and replay cycle-by-cycle to the next
	// boundary. Deterministic host only.
	Rollback bool
	// Parallel selects the goroutine-parallel host (GOMAXPROCS workers,
	// each ticking a static partition of the cores between barriers, the
	// first also running the manager) instead of the seeded deterministic
	// host.
	Parallel bool
	// TrackIntervals enables per-interval violation statistics for the
	// given interval lengths (the paper's Tables 3 and 4).
	TrackIntervals []int64
	// MapViolationsOnly restricts adaptation and rollback to cache-map
	// violations, the paper's suggested refinement for cutting rollback
	// costs.
	MapViolationsOnly bool
	// MeasureViolations charges the violation-detection overhead to the
	// host cost model even when the scheme does not require it (it is
	// implied by Adaptive, Rollback and TrackIntervals; set it to model
	// an instrumented bounded run, as in the Figure 3 experiments).
	MeasureViolations bool
	// AdaptivePolicy selects the adaptive controller's bound-adjustment
	// policy (AIMD by default; AIAD exists for the ablation study).
	AdaptivePolicy Policy
	// TraceEvents, when positive, keeps a ring of the last N noteworthy
	// events (serviced requests, violations, bound changes, checkpoints,
	// rollbacks), retrievable with Simulation.Trace after the run. On the
	// parallel host the ring also feeds the stall watchdog: a *StallError
	// dump includes the trace tail, so a wedged run fails with the events
	// leading up to the wedge attached.
	TraceEvents int
	// OnProgress, when non-nil, receives monotone progress snapshots as
	// the run advances; the callback must be fast and non-blocking.
	OnProgress func(Progress)
	// ProgressEvery is the minimum global-time advance, in simulated
	// cycles, between OnProgress deliveries (default 1024).
	ProgressEvery int64
	// Interrupt, when non-nil, is an external stop request: set it true
	// and the run returns ErrInterrupted at its next pacing step.
	Interrupt *atomic.Bool
	// StallTimeout overrides the parallel host's stall-watchdog budget
	// (0 = the 30s default, negative disables it).
	StallTimeout time.Duration
	// SnapshotRequest, when non-nil and set true, asks the run to export
	// its complete state at the next checkpoint boundary: OnSnapshot
	// receives the serialized state and the run returns ErrSnapshotted.
	// Requires CheckpointInterval > 0 and the deterministic host.
	SnapshotRequest *atomic.Bool
	// OnSnapshot receives the serialized run state when a snapshot
	// request fires; pass it to Simulation.Resume (on a fresh Simulation
	// built from the same Config, possibly on another machine) to
	// continue the run.
	OnSnapshot func(state []byte)
}

// Simulation is a constructed machine ready to run once.
type Simulation struct {
	machine *engine.Machine
	wload   workload.Workload
	runCfg  engine.RunConfig
	par     bool
	used    bool
}

// New builds a simulation from cfg.
func New(cfg Config) (*Simulation, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	w, err := buildWorkload(cfg)
	if err != nil {
		return nil, err
	}
	return NewWithWorkload(cfg, w)
}

// buildWorkload resolves cfg's workload: a scenario kind ("synth",
// "trace") or a registry benchmark.
func buildWorkload(cfg Config) (workload.Workload, error) {
	switch cfg.Workload {
	case "":
		return nil, fmt.Errorf("slacksim: Config.Workload is required")
	case "synth":
		var sc synth.Config
		if cfg.Synth != nil {
			sc = *cfg.Synth
		}
		return synth.New(sc)
	case "trace":
		if len(cfg.TraceData) == 0 {
			return nil, fmt.Errorf("slacksim: workload \"trace\" requires Config.TraceData")
		}
		return memtrace.NewReplay(cfg.TraceData)
	default:
		return workload.ByName(cfg.Workload, cfg.Scale)
	}
}

// machinePool recycles released machines across Simulations: a machine
// whose Simulation called Release is reset and handed to the next New
// with the same shape, so repeated runs (sweeps, services, benchmarks)
// reuse every warmed internal allocation instead of rebuilding the
// machine. Machines are only pooled on explicit Release, so Simulations
// that keep inspecting their machine after the run are unaffected.
var machinePool = engine.NewMachinePool()

// NewWithWorkload builds a simulation running a custom workload (anything
// satisfying the workload.Workload contract: per-core programs plus a
// memory initializer).
func NewWithWorkload(cfg Config, w workload.Workload) (*Simulation, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	m, err := machinePool.Get(engine.MachineConfig{NumCores: cfg.Cores}, w)
	if err != nil {
		return nil, err
	}
	rc := engine.RunConfig{
		Scheme:             cfg.Scheme,
		MaxInstructions:    cfg.MaxInstructions,
		Seed:               cfg.Seed,
		CheckpointInterval: cfg.CheckpointInterval,
		Rollback:           cfg.Rollback,
		TrackIntervals:     cfg.TrackIntervals,
		MeasureViolations:  cfg.MeasureViolations,
		AdaptivePolicy:     cfg.AdaptivePolicy,
		OnProgress:         cfg.OnProgress,
		ProgressEvery:      cfg.ProgressEvery,
		Interrupt:          cfg.Interrupt,
		StallTimeout:       cfg.StallTimeout,
		SnapshotRequest:    cfg.SnapshotRequest,
		OnSnapshot:         cfg.OnSnapshot,
		Sampling:           cfg.Sampling,
		MemRecorder:        cfg.MemRecorder,
	}
	if cfg.MapViolationsOnly {
		rc.Selected = []violation.Type{violation.Map}
	}
	if cfg.TraceEvents > 0 {
		rc.Tracer = trace.NewRing(cfg.TraceEvents)
	}
	return &Simulation{machine: m, wload: w, runCfg: rc, par: cfg.Parallel}, nil
}

// Release returns the simulation's machine to the process-wide machine
// pool, where the next New with the same core count and configuration
// will reuse it (reset, with all warmed allocations kept). Call it after
// the run's Results — and any Machine()/Verify() inspection — are no
// longer needed; the Simulation must not be used afterwards.
func (s *Simulation) Release() {
	if s.machine != nil {
		machinePool.Put(s.machine)
		s.machine = nil
	}
}

// Run simulates to completion and returns the results. A Simulation runs
// once; build a new one for another run.
func (s *Simulation) Run() (Results, error) {
	if s.used {
		return Results{}, fmt.Errorf("slacksim: this simulation already ran; construct a new one")
	}
	if s.machine == nil {
		return Results{}, fmt.Errorf("slacksim: this simulation was released; construct a new one")
	}
	s.used = true
	if s.par {
		return engine.RunParallel(s.machine, s.runCfg)
	}
	return engine.Run(s.machine, s.runCfg)
}

// Resume continues a run that exported its state via a snapshot request.
// The Simulation must be freshly built from the same Config (same
// workload, cores, scheme and seed) that produced the state — typically
// on another machine — and counts as this Simulation's single run. The
// continued run produces Results identical to an uninterrupted one
// (wall-clock timing aside).
func (s *Simulation) Resume(state []byte) (Results, error) {
	if s.used {
		return Results{}, fmt.Errorf("slacksim: this simulation already ran; construct a new one")
	}
	s.used = true
	if s.par {
		return Results{}, fmt.Errorf("slacksim: resume requires the deterministic host")
	}
	return engine.Resume(s.machine, s.runCfg, state)
}

// Verify checks the workload's functional result in the simulated memory
// against its reference implementation, when the workload supports it.
func (s *Simulation) Verify() error {
	if cv, ok := s.wload.(workload.CoreVerifier); ok {
		return cv.VerifyCores(s.machine.Memory(), s.machine.NumCores())
	}
	v, ok := s.wload.(workload.Verifier)
	if !ok {
		return fmt.Errorf("slacksim: workload %s has no verifier", s.wload.Name())
	}
	return v.Verify(s.machine.Memory())
}

// Machine exposes the underlying machine for inspection (per-core caches,
// the status map, target memory). Intended for tests and tools.
func (s *Simulation) Machine() *engine.Machine { return s.machine }

// Trace returns the retained event trace as text (empty when tracing was
// not enabled).
func (s *Simulation) Trace() string {
	if s.runCfg.Tracer == nil {
		return ""
	}
	return s.runCfg.Tracer.String()
}

// MustRun builds and runs a simulation, panicking on error; a convenience
// for examples and benchmarks.
func MustRun(cfg Config) Results {
	sim, err := New(cfg)
	if err != nil {
		panic(err)
	}
	res, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return res
}
