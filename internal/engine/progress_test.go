package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"slacksim/internal/workload"
)

// checkMonotone asserts the recorded progress sequence is strictly
// increasing in Counter and nondecreasing in Cycles and Committed.
func checkMonotone(t *testing.T, got []Progress) {
	t.Helper()
	if len(got) == 0 {
		t.Fatalf("progress hook never fired")
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.Counter <= a.Counter {
			t.Fatalf("counter not strictly increasing at %d: %d -> %d", i, a.Counter, b.Counter)
		}
		if b.Cycles < a.Cycles {
			t.Fatalf("cycles decreased at %d: %d -> %d", i, a.Cycles, b.Cycles)
		}
		if b.Committed < a.Committed {
			t.Fatalf("committed decreased at %d: %d -> %d", i, a.Committed, b.Committed)
		}
	}
}

// finalCounter recomputes the watchdog's progress formula from the
// machine's end-of-run state: sum of local times, committed instructions,
// and retirement flags. Both hosts' hooks must never report more motion
// than the machine actually made.
func finalCounter(m *Machine, res Results) uint64 {
	var p uint64
	for _, c := range m.cores {
		p += uint64(c.Now())
		p += c.Stats().Committed
		if c.Halted() {
			p++
		}
	}
	return p
}

func TestProgressHookDeterministic(t *testing.T) {
	w := workload.NewFFT(64)
	m := newTestMachine(t, w, 4)
	var got []Progress
	res, err := Run(m, RunConfig{
		Scheme:        BoundedSlack(8),
		Seed:          3,
		OnProgress:    func(p Progress) { got = append(got, p) },
		ProgressEvery: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMonotone(t, got)
	if len(got) < 2 {
		t.Fatalf("expected several progress deliveries with ProgressEvery=1, got %d", len(got))
	}
	fc := finalCounter(m, res)
	last := got[len(got)-1]
	if last.Counter > fc {
		t.Fatalf("hook counter %d exceeds machine's final progress %d", last.Counter, fc)
	}
	if last.Cycles > res.Cycles {
		t.Fatalf("hook cycles %d exceeds final global time %d", last.Cycles, res.Cycles)
	}
}

func TestProgressHookParallel(t *testing.T) {
	w := workload.NewFFT(64)
	m := newTestMachine(t, w, 4)
	// The hook runs on the manager goroutine only, so plain appends are
	// safe; the slice is read after RunParallel returns.
	var got []Progress
	res, err := RunParallel(m, RunConfig{
		Scheme:        BoundedSlack(8),
		OnProgress:    func(p Progress) { got = append(got, p) },
		ProgressEvery: 1,
		StallTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	checkMonotone(t, got)
	// The parallel hook reports observation.counter() verbatim — the same
	// counter the stall watchdog polls — so it can never exceed the
	// machine's final motion, and a nonzero delivery proves the watchdog
	// would have seen the same forward progress.
	fc := finalCounter(m, res)
	last := got[len(got)-1]
	if last.Counter > fc {
		t.Fatalf("hook counter %d exceeds watchdog's final progress %d", last.Counter, fc)
	}
	if last.Counter == 0 && len(got) == 1 {
		t.Fatalf("hook only observed zero progress")
	}
}

// TestProgressHookRollbackMonotone: rollback restores clocks backwards;
// the notifier must suppress those windows so subscribers still see a
// strictly increasing counter.
func TestProgressHookRollbackMonotone(t *testing.T) {
	w := workload.NewFalseShare(128)
	m := newTestMachine(t, w, 4)
	var got []Progress
	res, err := Run(m, RunConfig{
		Scheme:             BoundedSlack(32),
		Seed:               7,
		CheckpointInterval: 200,
		Rollback:           true,
		OnProgress:         func(p Progress) { got = append(got, p) },
		ProgressEvery:      1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkMonotone(t, got)
	_ = res
}

func TestInterruptDeterministic(t *testing.T) {
	w := workload.NewFFT(256)
	m := newTestMachine(t, w, 4)
	var stop atomic.Bool
	n := 0
	_, err := Run(m, RunConfig{
		Scheme: BoundedSlack(8),
		Seed:   1,
		OnProgress: func(Progress) {
			n++
			if n == 3 {
				stop.Store(true)
			}
		},
		ProgressEvery: 1,
		Interrupt:     &stop,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

// TestInterruptParallel raises the interrupt mid-run from the progress
// hook: the run must return ErrInterrupted, and every goroutine it started
// (workers and watchdog) must exit, so the count returns to its baseline.
func TestInterruptParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	w := workload.NewFFT(256)
	m := newTestMachine(t, w, 4)
	var stop atomic.Bool
	n := 0
	_, err := RunParallel(m, RunConfig{
		Scheme: BoundedSlack(8),
		OnProgress: func(Progress) {
			n++
			if n == 3 {
				stop.Store(true)
			}
		},
		ProgressEvery: 1,
		StallTimeout:  30 * time.Second,
		Interrupt:     &stop,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	// Poll briefly: the runtime's finalizer goroutine counts while it runs
	// finalizers, so the count can sit one above the baseline for a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the interrupted run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
