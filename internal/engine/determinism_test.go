package engine

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"slacksim/internal/mem"
	"slacksim/internal/workload"
)

// TestSameSeedSameResults: the deterministic host is bit-reproducible.
func TestSameSeedSameResults(t *testing.T) {
	run := func() Results {
		m := newTestMachine(t, workload.NewFalseShare(128), 4)
		return MustRun(m, RunConfig{Scheme: BoundedSlack(16), Seed: 42})
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Committed != b.Committed ||
		a.BusViolations != b.BusViolations || a.MapViolations != b.MapViolations ||
		a.EventsServed != b.EventsServed || a.Suspensions != b.Suspensions {
		t.Errorf("same seed diverged:\n%v\n%v", a, b)
	}
}

// TestDifferentSeedsStillCorrect: scheduling randomness must never change
// functional results, only timing.
func TestDifferentSeedsStillCorrect(t *testing.T) {
	w := workload.NewWater(8, 1)
	for seed := int64(0); seed < 4; seed++ {
		m := newTestMachine(t, w, 4)
		MustRun(m, RunConfig{Scheme: BoundedSlack(64), Seed: seed})
		if err := w.Verify(m.Memory()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCCIndependentOfSeed: cycle-by-cycle simulation is the gold standard;
// the host's scheduling randomness must not leak into it at all.
func TestCCIndependentOfSeed(t *testing.T) {
	run := func(seed int64) Results {
		m := newTestMachine(t, workload.NewFFT(64), 4)
		return MustRun(m, RunConfig{Scheme: CycleByCycle(), Seed: seed})
	}
	a, b := run(1), run(999)
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Errorf("CC depends on seed: %d/%d vs %d/%d cycles/insts",
			a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
	if a.BusViolations != 0 || a.MapViolations != 0 {
		t.Errorf("CC produced violations: %v", a)
	}
}

// TestCCChunkingInvariant: the deterministic host's chunk size must not
// change cycle-by-cycle results either (cores are re-picked within the
// one-cycle window anyway).
func TestCCChunkingInvariant(t *testing.T) {
	run := func(chunk int64) Results {
		m := newTestMachine(t, workload.NewLU(8), 4)
		return MustRun(m, RunConfig{Scheme: CycleByCycle(), Seed: 5, MaxChunk: chunk})
	}
	a, b := run(1), run(64)
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Errorf("CC depends on chunking: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// canonical strips the fields that describe the simulating host; what is
// left describes the simulated machine and must not depend on the host.
func canonical(r Results) Results {
	r.Host = ""
	r.WallClock = 0
	r.HostWorkUnits = 0
	r.Suspensions = 0
	return r
}

// TestCCParallelMatchesDeterministic: both hosts must produce the same
// gold-standard timing for a data-race-free, barrier-synchronized
// workload. This is the strongest cross-host correctness check: the whole
// canonical Results (cycles, commits, events served, per-core stats down
// to barrier_wait) must be equal. The gomaxprocs column sets the worker
// count: 1 runs every core on the calling goroutine with no barrier, 2
// splits 8 cores over two workers and repeats, and 16 exceeds the 2-core
// machine's core count, so the pool clamps to one worker per core.
func TestCCParallelMatchesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    interface {
			Workload
			Verify(*mem.Memory) error
		}
		cores      int
		seed       int64
		reps       int
		gomaxprocs int
	}{
		{"fft-64", workload.NewFFT(64), 4, 1, 1, 0},
		{"lu-8", workload.NewLU(8), 4, 3, 1, 0},
		{"fft-512x8", workload.NewFFT(512), 8, 1, 20, 2},
		{"fft-256x8-p1", workload.NewFFT(256), 8, 1, 3, 1},
		{"fft-64x2-p16", workload.NewFFT(64), 2, 1, 3, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gomaxprocs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.gomaxprocs))
			}
			md := newTestMachine(t, tc.w, tc.cores)
			det := canonical(MustRun(md, RunConfig{Scheme: CycleByCycle(), Seed: tc.seed}))
			for rep := 0; rep < tc.reps; rep++ {
				mp := newTestMachine(t, tc.w, tc.cores)
				res, err := RunParallel(mp, RunConfig{Scheme: CycleByCycle()})
				if err != nil {
					t.Fatal(err)
				}
				par := canonical(res)
				if !reflect.DeepEqual(det, par) {
					dj, _ := json.Marshal(det)
					pj, _ := json.Marshal(par)
					t.Errorf("rep %d: CC results differ across hosts (cycles %d vs %d):\ndeterministic %s\nparallel      %s",
						rep, det.Cycles, par.Cycles, dj, pj)
				}
				if par.BusViolations != 0 || par.MapViolations != 0 {
					t.Errorf("rep %d: parallel CC produced violations: %v", rep, par)
				}
				if err := tc.w.Verify(mp.Memory()); err != nil {
					t.Fatalf("rep %d: parallel CC functional: %v", rep, err)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
