package stress

import (
	"math/rand"
	"testing"

	"slacksim/internal/engine"
)

// TestGeneratorsProduceValidConfigs: every drawn scenario must have a
// valid scheme, a power-of-two core count every workload accepts, and a
// buildable workload.
func TestGeneratorsProduceValidConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		for _, cfg := range []Config{RandomEquivalence(rng), Random(rng), RandomSpeculative(rng)} {
			if err := cfg.Scheme.Validate(); err != nil {
				t.Fatalf("draw %d {%s}: invalid scheme: %v", i, cfg, err)
			}
			if cfg.Cores < 1 || cfg.Cores&(cfg.Cores-1) != 0 {
				t.Fatalf("draw %d {%s}: core count not a power of two", i, cfg)
			}
			if _, err := cfg.build(); err != nil {
				t.Fatalf("draw %d {%s}: %v", i, cfg, err)
			}
			if cfg.StallTimeout <= 0 {
				t.Fatalf("draw %d {%s}: watchdog disabled", i, cfg)
			}
			if cfg.String() == "" {
				t.Fatalf("draw %d: empty description", i)
			}
		}
	}
}

// TestEquivalenceDrawsAreEligible: RandomEquivalence must only produce CC
// scenarios without instruction caps, so Execute always cross-checks them.
func TestEquivalenceDrawsAreEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		cfg := RandomEquivalence(rng)
		if cfg.Scheme.Kind != engine.CC {
			t.Fatalf("draw %d {%s}: not CC", i, cfg)
		}
		if cfg.MaxInstructions != 0 {
			t.Fatalf("draw %d {%s}: instruction cap breaks equivalence", i, cfg)
		}
	}
}

// TestExecuteReportsDivergence: a non-CC scheme must not be
// equivalence-checked, and a CC run must be.
func TestExecuteReportsDivergence(t *testing.T) {
	cc := Config{Seed: 1, Cores: 2, Workload: "private", Scheme: engine.CycleByCycle(),
		StallTimeout: defaultStall}
	res, err := Execute(cc)
	if err != nil {
		t.Fatalf("CC scenario: %v", err)
	}
	if res.Det == nil {
		t.Fatal("CC scenario was not cross-checked")
	}
	su := cc
	su.Scheme = engine.UnboundedSlack()
	res, err = Execute(su)
	if err != nil {
		t.Fatalf("SU scenario: %v", err)
	}
	if res.Det != nil {
		t.Fatal("SU scenario was cross-checked; SU timing is host-dependent")
	}
}

// TestSpeculativeDrawsExerciseRollback: RandomSpeculative must always
// checkpoint and roll back under a scheme that can violate.
func TestSpeculativeDrawsExerciseRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		cfg := RandomSpeculative(rng)
		if !cfg.Rollback || cfg.CheckpointInterval <= 0 {
			t.Fatalf("draw %d {%s}: not a speculative scenario", i, cfg)
		}
		if cfg.Scheme.Kind == engine.CC {
			t.Fatalf("draw %d {%s}: CC cannot violate, rollback never fires", i, cfg)
		}
	}
}

// TestPooledEquivalenceProperty is the correctness proof behind machine
// pooling: across edge scenarios and randomized speculative sweeps, a run
// on a recycled machine must produce the same Results and the same final
// machine state as the run on a fresh one.
func TestPooledEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var cfgs []Config
	for _, c := range Edges() {
		if c.CheckpointInterval == 0 {
			c.CheckpointInterval = 64 // the snapshot graph is pooled state too
		}
		cfgs = append(cfgs, c)
	}
	cfgs = append(cfgs,
		// Speculative twins of the checkpointing edges: rollback with an
		// interval past the halt time, and with a boundary-dense run.
		Config{Seed: 5, Cores: 4, Workload: "falseshare", Scheme: engine.BoundedSlack(8),
			CheckpointInterval: 64, Rollback: true, StallTimeout: defaultStall},
		Config{Seed: 6, Cores: 2, Workload: "fft", Scheme: engine.UnboundedSlack(),
			CheckpointInterval: 1 << 20, Rollback: true, StallTimeout: defaultStall},
	)
	nRand, nCC := 32, 8
	if testing.Short() {
		nRand, nCC = 8, 2
	}
	for i := 0; i < nRand; i++ {
		cfgs = append(cfgs, RandomSpeculative(rng))
	}
	// Checkpointing without rollback must match too (checkpoints still
	// fill the pooled snapshot graph even when never restored).
	for i := 0; i < nCC; i++ {
		c := RandomEquivalence(rng)
		if c.CheckpointInterval == 0 {
			c.CheckpointInterval = 128
		}
		cfgs = append(cfgs, c)
	}
	for i, c := range cfgs {
		if err := ExecutePooledEquivalence(c); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}

// TestCompareCCCatchesDivergence: the comparator itself must flag each
// divergence axis.
func TestCompareCCCatchesDivergence(t *testing.T) {
	base := engine.Results{Cycles: 100, Committed: 50, EventsServed: 7}
	if err := compareCC(base, base); err != nil {
		t.Fatalf("identical results flagged: %v", err)
	}
	for name, mutate := range map[string]func(*engine.Results){
		"cycles":    func(r *engine.Results) { r.Cycles++ },
		"committed": func(r *engine.Results) { r.Committed++ },
		"events":    func(r *engine.Results) { r.EventsServed++ },
		"ckpts":     func(r *engine.Results) { r.Checkpoints += 2 },
	} {
		par := base
		mutate(&par)
		if err := compareCC(base, par); err == nil {
			t.Errorf("%s divergence not flagged", name)
		}
	}
	// A one-checkpoint difference is the tolerated boundary coincidence.
	par := base
	par.Checkpoints = base.Checkpoints + 1
	if err := compareCC(base, par); err != nil {
		t.Errorf("±1 checkpoint tolerance missing: %v", err)
	}
}
