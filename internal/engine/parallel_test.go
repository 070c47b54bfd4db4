package engine

import (
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/mem"
	"slacksim/internal/workload"
)

func TestParallelSchemesFunctional(t *testing.T) {
	schemes := []Scheme{
		CycleByCycle(),
		BoundedSlack(8),
		UnboundedSlack(),
		QuantumScheme(100),
		AdaptiveSlack(adaptive.DefaultConfig()),
	}
	for _, s := range schemes {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			w := workload.NewFFT(64)
			m := newTestMachine(t, w, 4)
			res, err := RunParallel(m, RunConfig{Scheme: s})
			if err != nil {
				t.Fatalf("RunParallel: %v", err)
			}
			if err := w.Verify(m.Memory()); err != nil {
				t.Fatalf("functional: %v", err)
			}
			if res.Committed == 0 || res.Cycles == 0 {
				t.Fatalf("empty results: %v", res)
			}
			if res.Host != "parallel" {
				t.Errorf("host label %q", res.Host)
			}
		})
	}
}

// TestParallelLockKernel runs the lock-based kernels on the parallel
// host under cc and s16. Their cores contend for lock words and spin on
// barriers in the sync controller and share the memory image from every
// worker at once, so under -race this is the check that both stay
// correct without a mutex; the result must still verify.
func TestParallelLockKernel(t *testing.T) {
	for _, k := range []struct {
		name string
		w    interface {
			Workload
			Verify(*mem.Memory) error
		}
	}{
		{"barnes", workload.NewBarnes(16, 1)},
		{"water", workload.NewWater(16, 1)},
	} {
		for _, s := range []Scheme{CycleByCycle(), BoundedSlack(16)} {
			t.Run(k.name+"/"+s.Name(), func(t *testing.T) {
				m := newTestMachine(t, k.w, 4)
				if _, err := RunParallel(m, RunConfig{Scheme: s}); err != nil {
					t.Fatal(err)
				}
				if err := k.w.Verify(m.Memory()); err != nil {
					t.Fatalf("lock-heavy kernel broke under the parallel host: %v", err)
				}
			})
		}
	}
}

func TestParallelCheckpointing(t *testing.T) {
	w := workload.NewLU(8)
	m := newTestMachine(t, w, 4)
	res, err := RunParallel(m, RunConfig{
		Scheme: BoundedSlack(16), CheckpointInterval: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints == 0 {
		t.Error("parallel host took no checkpoints")
	}
	if err := w.Verify(m.Memory()); err != nil {
		t.Fatal(err)
	}
}

func TestParallelRollbackRejected(t *testing.T) {
	m := newTestMachine(t, workload.NewPrivate(16, 1), 2)
	_, err := RunParallel(m, RunConfig{
		Scheme: BoundedSlack(8), CheckpointInterval: 100, Rollback: true,
	})
	if err == nil {
		t.Fatal("parallel rollback accepted")
	}
}

func TestParallelMaxInstructions(t *testing.T) {
	m := newTestMachine(t, workload.NewPrivate(4096, 50), 4)
	res, err := RunParallel(m, RunConfig{Scheme: UnboundedSlack(), MaxInstructions: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 4000 {
		t.Errorf("stopped at %d committed, want >= 4000", res.Committed)
	}
}

func TestParallelMaxCycles(t *testing.T) {
	m := newTestMachine(t, workload.NewPrivate(65536, 100), 2)
	res, err := RunParallel(m, RunConfig{Scheme: BoundedSlack(4), MaxCycles: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > 600 {
		t.Errorf("ran to %d cycles past the cap", res.Cycles)
	}
}

func TestParallelSuspensionOrdering(t *testing.T) {
	// The synchronization-cost signature: CC suspends far more often than
	// a loose bound on the same workload.
	w := workload.NewPrivate(256, 2)
	mc := newTestMachine(t, w, 4)
	cc, err := RunParallel(mc, RunConfig{Scheme: CycleByCycle()})
	if err != nil {
		t.Fatal(err)
	}
	ms := newTestMachine(t, w, 4)
	su, err := RunParallel(ms, RunConfig{Scheme: UnboundedSlack()})
	if err != nil {
		t.Fatal(err)
	}
	if su.Suspensions >= cc.Suspensions {
		t.Errorf("SU suspensions %d not below CC %d", su.Suspensions, cc.Suspensions)
	}
}
