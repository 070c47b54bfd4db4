package slacksim

import (
	"strings"
	"testing"

	"slacksim/internal/workload"
)

func TestQuickstartFlow(t *testing.T) {
	sim, err := New(Config{
		Workload: "fft",
		Cores:    4,
		Scheme:   Schemes.Bounded(10),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Fatalf("empty results: %v", res)
	}
	if err := sim.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(res.String(), "fft") {
		t.Errorf("summary %q missing workload", res.String())
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestDefaultsAre8CoreCC(t *testing.T) {
	sim, err := New(Config{Workload: "private"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "CC" {
		t.Errorf("default scheme %q, want CC", res.Scheme)
	}
	if len(res.PerCore) != 8 {
		t.Errorf("default cores %d, want 8", len(res.PerCore))
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing workload accepted")
	}
	if _, err := New(Config{Workload: "bogus"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := New(Config{Workload: "fft", Scheme: Schemes.Bounded(0)}); err == nil {
		// Scheme errors surface at Run, not New; make sure Run catches it.
		sim, _ := New(Config{Workload: "fft", Scheme: Schemes.Bounded(0)})
		if sim != nil {
			if _, err := sim.Run(); err == nil {
				t.Error("invalid scheme accepted by Run")
			}
		}
	}
}

func TestSimulationRunsOnce(t *testing.T) {
	sim, err := New(Config{Workload: "private", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("second Run on the same simulation accepted")
	}
}

func TestSchemeConstructors(t *testing.T) {
	if Schemes.CC().Name() != "CC" || Schemes.Unbounded().Name() != "SU" {
		t.Error("scheme names wrong")
	}
	if Schemes.Bounded(7).Name() != "S7" || Schemes.Quantum(50).Name() != "Q50" {
		t.Error("parameterized scheme names wrong")
	}
	if Schemes.AdaptiveDefault().Adaptive.TargetRate != 0.0001 {
		t.Error("default adaptive target is not the paper's 0.01%")
	}
}

func TestSpeculativeViaPublicAPI(t *testing.T) {
	sim, err := New(Config{
		Workload:           "water",
		Cores:              4,
		Scheme:             Schemes.Bounded(64),
		Seed:               3,
		CheckpointInterval: 400,
		Rollback:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints == 0 {
		t.Error("no checkpoints")
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMapOnlySelection(t *testing.T) {
	sim, err := New(Config{
		Workload:          "water",
		Cores:             4,
		Scheme:            Schemes.Bounded(32),
		Seed:              2,
		MapViolationsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With only map violations selected, the reported (selected) rate
	// must equal the map rate.
	if res.ViolationRate != res.MapRate {
		t.Errorf("selected rate %v != map rate %v", res.ViolationRate, res.MapRate)
	}
}

func TestParallelHostViaPublicAPI(t *testing.T) {
	sim, err := New(Config{
		Workload: "lu",
		Cores:    4,
		Scheme:   Schemes.Bounded(16),
		Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Host != "parallel" {
		t.Errorf("host %q", res.Host)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomWorkload(t *testing.T) {
	w := workload.NewPrivate(64, 1)
	sim, err := NewWithWorkload(Config{Cores: 2, Scheme: Schemes.CC()}, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyWithoutRunIsClean(t *testing.T) {
	// Verify on an un-run simulation checks the *initial* memory, which
	// for most workloads fails — but it must not panic.
	sim, err := New(Config{Workload: "fft", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = sim.Verify() // error is fine; panic is not
}

func TestTraceCapture(t *testing.T) {
	sim, err := New(Config{
		Workload:           "falseshare",
		Cores:              4,
		Scheme:             Schemes.Bounded(32),
		Seed:               3,
		CheckpointInterval: 500,
		Rollback:           true,
		TraceEvents:        4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Trace() != "" {
		t.Error("trace non-empty before run")
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	tr := sim.Trace()
	if !strings.Contains(tr, "request") {
		t.Errorf("trace missing requests:\n%s", tr)
	}
	if !strings.Contains(tr, "checkpoint") && !strings.Contains(tr, "rollback") {
		t.Errorf("trace missing engine events:\n%s", tr)
	}
}

func TestNoTraceByDefault(t *testing.T) {
	sim, err := New(Config{Workload: "private", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.Trace() != "" {
		t.Error("untraced run produced a trace")
	}
}

func TestLaxP2PViaPublicAPI(t *testing.T) {
	sim, err := New(Config{
		Workload: "fft",
		Cores:    4,
		Scheme:   Schemes.LaxP2P(100, 50),
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "P2P100" {
		t.Errorf("scheme %q", res.Scheme)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyOnPooledMachineKnowsCoreCount: a machine taken from the pool
// reuses its compiled programs, so the fresh workload value never sees a
// Programs call; Verify must still check the cores that ran (bench defect
// 6: the second pooled 2-core private run failed with "core 2 sum = 0").
func TestVerifyOnPooledMachineKnowsCoreCount(t *testing.T) {
	for _, wl := range []string{"private", "falseshare"} {
		for run := 0; run < 2; run++ {
			sim, err := New(Config{Workload: wl, Cores: 2, Scheme: Schemes.Bounded(8), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if err := sim.Verify(); err != nil {
				t.Errorf("%s, pooled run %d: %v", wl, run, err)
			}
			sim.Release()
		}
	}
}
