// Package stress generates randomized short simulation configurations and
// executes them with liveness and cross-host equivalence checks. It is the
// engine behind both the `go test` stress harness
// (internal/engine/stress_test.go) and the standalone cmd/stress driver:
// hundreds of tiny runs across scheme × core count × checkpoint interval ×
// seed, each bounded by the parallel host's stall watchdog so a pacing
// deadlock fails with a structured dump instead of hanging, and — for the
// cycle-by-cycle scheme — asserted to match the deterministic host
// cycle-for-cycle.
package stress

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"slacksim/internal/adaptive"
	"slacksim/internal/engine"
	"slacksim/internal/mem"
	"slacksim/internal/workload"
)

// Config is one randomized stress scenario. The workload sizes are
// deliberately tiny (tens to a few thousand target cycles) so hundreds of
// scenarios fit in one `go test -race` run.
type Config struct {
	// Seed drives the deterministic host's scheduling for this scenario.
	Seed int64
	// Cores is the target core count (always a power of two so every
	// workload accepts it; includes the n=1 edge).
	Cores int
	// Workload names one of the tiny stress workloads (see build).
	Workload string
	// Scheme is the synchronization scheme under test.
	Scheme engine.Scheme
	// CheckpointInterval, when positive, checkpoints every that many
	// cycles (including intervals far beyond the halt time, the
	// all-cores-retire-before-checkpoint edge).
	CheckpointInterval int64
	// MaxCycles, when positive, truncates the run at the horizon.
	MaxCycles int64
	// MaxInstructions, when positive, stops the run at a commit cap. The
	// stopping cycle is host-scheduling dependent, so equivalence checks
	// are skipped for such configs (liveness and horizon checks still run).
	MaxInstructions uint64
	// Rollback enables speculative slack simulation (deterministic host
	// only; the parallel host rejects it).
	Rollback bool
	// StallTimeout is the parallel host's watchdog budget for this run.
	StallTimeout time.Duration
}

// String renders the scenario compactly for failure messages.
func (c Config) String() string {
	return fmt.Sprintf("seed=%d cores=%d wl=%s scheme=%s ckpt=%d maxcycles=%d maxinst=%d rollback=%v",
		c.Seed, c.Cores, c.Workload, c.Scheme.Name(),
		c.CheckpointInterval, c.MaxCycles, c.MaxInstructions, c.Rollback)
}

// truncated reports whether the run may stop before the programs halt, in
// which case the functional memory image cannot be verified.
func (c Config) truncated() bool { return c.MaxCycles > 0 || c.MaxInstructions > 0 }

// build constructs the scenario's workload.
func (c Config) build() (engine.Workload, error) {
	switch c.Workload {
	case "private":
		return workload.NewPrivate(32, 1), nil
	case "private-long":
		return workload.NewPrivate(64, 2), nil
	case "falseshare":
		return workload.NewFalseShare(12), nil
	case "fft":
		return workload.NewFFT(8), nil
	case "lu":
		return workload.NewLU(4), nil
	}
	return nil, fmt.Errorf("stress: unknown workload %q", c.Workload)
}

// runConfig translates the scenario into an engine.RunConfig.
func (c Config) runConfig() engine.RunConfig {
	return engine.RunConfig{
		Scheme:             c.Scheme,
		Seed:               c.Seed,
		CheckpointInterval: c.CheckpointInterval,
		MaxCycles:          c.MaxCycles,
		MaxInstructions:    c.MaxInstructions,
		Rollback:           c.Rollback,
		StallTimeout:       c.StallTimeout,
	}
}

// verifier is implemented by all stress workloads (functional check of the
// simulated memory image against a Go reference).
type verifier interface {
	Verify(*mem.Memory) error
}

// Result is the outcome of one executed scenario.
type Result struct {
	// Par is the parallel host's result.
	Par engine.Results
	// Det is the deterministic host's result when the scenario was
	// equivalence-eligible (CC without an instruction cap), else nil.
	Det *engine.Results
}

// Execute runs one scenario: the parallel host under the stall watchdog,
// the horizon invariant (no core clock past MaxCycles), the functional
// check when the run is not truncated, and — for equivalence-eligible
// configs — a deterministic-host run compared cycle-for-cycle.
func Execute(c Config) (Result, error) {
	w, err := c.build()
	if err != nil {
		return Result{}, err
	}
	mp, err := engine.NewMachine(engine.MachineConfig{NumCores: c.Cores}, w)
	if err != nil {
		return Result{}, fmt.Errorf("stress: build machine: %w", err)
	}
	par, err := engine.RunParallel(mp, c.runConfig())
	if err != nil {
		return Result{}, fmt.Errorf("stress: parallel host: %w", err)
	}
	if err := checkHorizon(c, par); err != nil {
		return Result{}, err
	}
	if !c.truncated() {
		if err := w.(verifier).Verify(mp.Memory()); err != nil {
			return Result{}, fmt.Errorf("stress: parallel host functional: %w", err)
		}
	}
	res := Result{Par: par}
	if c.Scheme.Kind != engine.CC || c.MaxInstructions > 0 {
		return res, nil
	}
	md, err := engine.NewMachine(engine.MachineConfig{NumCores: c.Cores}, w)
	if err != nil {
		return Result{}, fmt.Errorf("stress: build machine: %w", err)
	}
	det, err := engine.Run(md, c.runConfig())
	if err != nil {
		return Result{}, fmt.Errorf("stress: deterministic host: %w", err)
	}
	if !c.truncated() {
		if err := w.(verifier).Verify(md.Memory()); err != nil {
			return Result{}, fmt.Errorf("stress: deterministic host functional: %w", err)
		}
	}
	if err := compareCC(det, par); err != nil {
		return Result{}, err
	}
	res.Det = &det
	return res, nil
}

// ExecutePooledEquivalence runs one scenario on the deterministic host
// twice — on a fresh machine, and on a machine recycled through
// MachinePool after a warm-up run of the same scenario under the next
// seed, so every pooled structure (caches, status-map slot arrays, free
// lists, the checkpoint snapshot graph) is reused warm and holds another
// run's residue — and demands byte-identical outcomes: the full Results
// struct (wall-clock excepted, the only host-dependent field), the final
// target memory image, the uncore (L2 + status map + bus), and every
// core's architectural and microarchitectural state. This is the property
// that makes machine pooling a pure optimization.
func ExecutePooledEquivalence(c Config) error {
	mc := engine.MachineConfig{NumCores: c.Cores}
	pool := engine.NewMachinePool()
	// run takes its machine from the pool, which builds a fresh one while
	// it holds none.
	run := func(c Config) (engine.Results, *engine.Machine, error) {
		w, err := c.build()
		if err != nil {
			return engine.Results{}, nil, err
		}
		m, err := pool.Get(mc, w)
		if err != nil {
			return engine.Results{}, nil, fmt.Errorf("stress: build machine: %w", err)
		}
		res, err := engine.Run(m, c.runConfig())
		if err != nil {
			return engine.Results{}, nil, fmt.Errorf("stress: deterministic host (seed %d): %w", c.Seed, err)
		}
		res.WallClock = 0
		return res, m, nil
	}
	freshRes, freshM, err := run(c)
	if err != nil {
		return err
	}
	warm := c
	warm.Seed++
	_, warmM, err := run(warm)
	if err != nil {
		return err
	}
	pool.Put(warmM)
	poolRes, poolM, err := run(c)
	if err != nil {
		return err
	}
	if poolM != warmM {
		return fmt.Errorf("stress: %s: pool built a fresh machine instead of recycling", c)
	}
	if !reflect.DeepEqual(freshRes, poolRes) {
		return fmt.Errorf("stress: %s: results diverge between fresh and pooled machines:\nfresh:  %+v\npooled: %+v",
			c, freshRes, poolRes)
	}
	return compareMachines(c, "fresh and pooled machines", freshM, poolM)
}

// compareMachines demands byte-identical final machine state.
func compareMachines(c Config, what string, a, b *engine.Machine) error {
	if !a.Memory().Equal(b.Memory()) {
		return fmt.Errorf("stress: %s: final memory images diverge between %s", c, what)
	}
	if !a.Uncore().StateEqual(b.Uncore()) {
		return fmt.Errorf("stress: %s: final uncore state diverges between %s", c, what)
	}
	ac, bc := a.Cores(), b.Cores()
	for i := range ac {
		if !ac[i].StateEqual(bc[i]) {
			return fmt.Errorf("stress: %s: final core %d state diverges between %s", c, i, what)
		}
	}
	return nil
}

// checkHorizon asserts the MaxCycles invariant: neither the global clock
// nor any per-core clock may pass the simulation horizon.
func checkHorizon(c Config, par engine.Results) error {
	if c.MaxCycles <= 0 {
		return nil
	}
	if par.Cycles > c.MaxCycles {
		return fmt.Errorf("stress: global time %d past horizon %d", par.Cycles, c.MaxCycles)
	}
	for i, s := range par.PerCore {
		if s.Cycles > c.MaxCycles {
			return fmt.Errorf("stress: core %d ticked to %d, past horizon %d", i, s.Cycles, c.MaxCycles)
		}
	}
	return nil
}

// compareCC asserts cycle-for-cycle equivalence of the CC scheme across
// hosts: same global time, same committed instructions, same events
// served, and identical per-core clocks and commit counts. Checkpoint
// counts may differ by one when the run ends exactly on a boundary (the
// deterministic host checkpoints before noticing completion; the parallel
// manager checks completion first).
func compareCC(det, par engine.Results) error {
	if det.Cycles != par.Cycles {
		return fmt.Errorf("stress: CC cycles diverge: deterministic %d vs parallel %d", det.Cycles, par.Cycles)
	}
	if det.Committed != par.Committed {
		return fmt.Errorf("stress: CC committed diverge: deterministic %d vs parallel %d", det.Committed, par.Committed)
	}
	if det.EventsServed != par.EventsServed {
		return fmt.Errorf("stress: CC events diverge: deterministic %d vs parallel %d", det.EventsServed, par.EventsServed)
	}
	if len(det.PerCore) != len(par.PerCore) {
		return fmt.Errorf("stress: per-core count diverge: %d vs %d", len(det.PerCore), len(par.PerCore))
	}
	for i := range det.PerCore {
		d, p := det.PerCore[i], par.PerCore[i]
		if d.Cycles != p.Cycles || d.Committed != p.Committed {
			return fmt.Errorf("stress: CC core %d diverges: deterministic %d cyc/%d inst vs parallel %d cyc/%d inst",
				i, d.Cycles, d.Committed, p.Cycles, p.Committed)
		}
	}
	if d := det.Checkpoints - par.Checkpoints; d < -1 || d > 1 {
		return fmt.Errorf("stress: CC checkpoints diverge: deterministic %d vs parallel %d", det.Checkpoints, par.Checkpoints)
	}
	return nil
}

// defaultStall is the watchdog budget stress scenarios run under: long
// enough for a loaded -race CI machine, short enough to fail a wedged run
// quickly.
const defaultStall = 20 * time.Second

// pick returns a uniformly random element.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// equivalenceWorkloads weights the tiny kernels toward the cheapest ones
// so a 100+ config sweep stays fast under -race; fft/lu still appear for
// barrier-phased and owner-computes sharing.
var equivalenceWorkloads = []string{
	"private", "private", "falseshare", "falseshare", "falseshare", "fft", "lu",
}

// RandomEquivalence draws an equivalence-eligible scenario: the CC scheme
// (whose timing must be host-independent) with randomized core count,
// checkpoint interval, horizon and seed, and no instruction cap.
func RandomEquivalence(rng *rand.Rand) Config {
	c := Config{
		Seed:               rng.Int63n(1 << 30),
		Cores:              pick(rng, []int{1, 2, 2, 4, 4, 8}),
		Workload:           pick(rng, equivalenceWorkloads),
		Scheme:             engine.CycleByCycle(),
		CheckpointInterval: pick(rng, []int64{0, 0, 0, 64, 128, 256}),
		StallTimeout:       defaultStall,
	}
	if rng.Intn(3) == 0 {
		c.MaxCycles = 100 + rng.Int63n(900)
	}
	return c
}

// Random draws a liveness scenario: any scheme, any tiny workload, with
// occasional cycle horizons and instruction caps. Non-CC schemes are not
// equivalence-checked (their timing legitimately depends on host
// interleaving); the scenario still asserts termination, the horizon
// invariant, and functional correctness when untruncated.
func Random(rng *rand.Rand) Config {
	c := Config{
		Seed:               rng.Int63n(1 << 30),
		Cores:              pick(rng, []int{1, 2, 2, 4, 4, 8}),
		Workload:           pick(rng, []string{"private", "private-long", "falseshare", "fft", "lu"}),
		Scheme:             randomScheme(rng),
		CheckpointInterval: pick(rng, []int64{0, 0, 64, 128, 256}),
		StallTimeout:       defaultStall,
	}
	switch rng.Intn(4) {
	case 0:
		c.MaxCycles = 100 + rng.Int63n(900)
	case 1:
		c.MaxInstructions = uint64(200 + rng.Intn(4000))
	}
	return c
}

// RandomSpeculative draws a rollback-heavy scenario for the checkpoint
// equivalence property: a violating slack scheme, a dense checkpoint
// interval, and speculative rollback on, so both checkpoint paths take
// and restore many checkpoints per run.
func RandomSpeculative(rng *rand.Rand) Config {
	c := Config{
		Seed:               rng.Int63n(1 << 30),
		Cores:              pick(rng, []int{2, 2, 4, 4, 8}),
		Workload:           pick(rng, []string{"falseshare", "falseshare", "fft", "lu", "private-long"}),
		Scheme:             speculativeScheme(rng),
		CheckpointInterval: pick(rng, []int64{32, 64, 64, 128, 256}),
		Rollback:           true,
		StallTimeout:       defaultStall,
	}
	if rng.Intn(4) == 0 {
		c.MaxCycles = 200 + rng.Int63n(800)
	}
	return c
}

// speculativeScheme draws a scheme that actually produces violations
// (cycle-by-cycle cannot, so it would never exercise rollback).
func speculativeScheme(rng *rand.Rand) engine.Scheme {
	switch rng.Intn(4) {
	case 0:
		return engine.BoundedSlack(4 + rng.Int63n(60))
	case 1:
		return engine.UnboundedSlack()
	case 2:
		return engine.AdaptiveSlack(adaptive.DefaultConfig())
	default:
		return engine.QuantumScheme(16 + rng.Int63n(112))
	}
}

// randomScheme draws one of the six schemes with randomized parameters.
func randomScheme(rng *rand.Rand) engine.Scheme {
	switch rng.Intn(6) {
	case 0:
		return engine.CycleByCycle()
	case 1:
		return engine.BoundedSlack(1 + rng.Int63n(32))
	case 2:
		return engine.UnboundedSlack()
	case 3:
		return engine.QuantumScheme(8 + rng.Int63n(120))
	case 4:
		return engine.AdaptiveSlack(adaptive.DefaultConfig())
	default:
		return engine.LaxP2PScheme(8+rng.Int63n(56), rng.Int63n(48))
	}
}

// Edges returns the deterministic corner scenarios every sweep includes:
// single-core machines under every scheme (the Lax-P2P n=1 partner-pick
// panic regression), all-cores-retire-before-the-first-checkpoint, and a
// run whose horizon lands exactly on a checkpoint boundary.
func Edges() []Config {
	singleCore := []engine.Scheme{
		engine.CycleByCycle(),
		engine.BoundedSlack(8),
		engine.UnboundedSlack(),
		engine.QuantumScheme(64),
		engine.AdaptiveSlack(adaptive.DefaultConfig()),
		engine.LaxP2PScheme(16, 8),
	}
	var cfgs []Config
	for _, s := range singleCore {
		cfgs = append(cfgs, Config{
			Seed: 1, Cores: 1, Workload: "private", Scheme: s,
			StallTimeout: defaultStall,
		})
	}
	cfgs = append(cfgs,
		// All cores halt long before the first checkpoint boundary.
		Config{Seed: 2, Cores: 4, Workload: "falseshare", Scheme: engine.CycleByCycle(),
			CheckpointInterval: 1 << 20, StallTimeout: defaultStall},
		// Horizon exactly on a checkpoint boundary.
		Config{Seed: 3, Cores: 2, Workload: "private-long", Scheme: engine.CycleByCycle(),
			CheckpointInterval: 64, MaxCycles: 256, StallTimeout: defaultStall},
		// Horizon with unbounded slack: the clamp is the only wall.
		Config{Seed: 4, Cores: 4, Workload: "private-long", Scheme: engine.UnboundedSlack(),
			MaxCycles: 200, StallTimeout: defaultStall},
	)
	return cfgs
}
