package engine

// Liveness regressions for the goroutine-parallel host: the stall
// watchdog's structured dump, the MaxCycles horizon clamp, the Lax-P2P
// single-core partner-pick panic, the drift cap that keeps unbounded slack
// from running away, and two runs sharing the host's processors.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slacksim/internal/trace"
	"slacksim/internal/workload"
)

// TestWatchdogStallDump wedges one worker on purpose through wedgeHook, so
// the manager waits at the barrier for an arrival that never comes, and
// asserts the watchdog's force-stop releases that wait and fails the run
// with the structured per-core dump, naming worker 1 as the one that never
// arrived, instead of hanging. The wedged worker leaves only once the run
// is stopped, without arriving.
func TestWatchdogStallDump(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	wedgeHook = func(w int, stop *atomic.Bool) {
		if w != 1 {
			return
		}
		for !stop.Load() {
			time.Sleep(time.Millisecond)
		}
		runtime.Goexit()
	}
	defer func() { wedgeHook = nil }()
	m := newTestMachine(t, workload.NewFFT(64), 4)
	done := make(chan error, 1)
	go func() {
		_, err := RunParallel(m, RunConfig{Scheme: CycleByCycle(), StallTimeout: 50 * time.Millisecond})
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("force-stop did not release the manager's barrier wait")
	}
	var serr *StallError
	if !errors.As(err, &serr) {
		t.Fatalf("want *StallError, got %v", err)
	}
	if serr.Budget != 50*time.Millisecond {
		t.Errorf("dump budget = %v, want 50ms", serr.Budget)
	}
	if len(serr.Cores) != 4 {
		t.Fatalf("dump has %d cores, want 4", len(serr.Cores))
	}
	// Worker 0 (the manager) ticked cores 0-1 to the first wall; worker 1
	// never touched cores 2-3.
	for _, c := range serr.Cores {
		wantLocal, wantParked := int64(1), true
		if c.Core >= 2 {
			wantLocal, wantParked = 0, false
		}
		if c.LocalTime != wantLocal || c.MaxLocal != 1 || c.Parked != wantParked || c.Retired {
			t.Errorf("core %d dump = %+v, want local=%d maxLocal=1 parked=%v retired=false",
				c.Core, c, wantLocal, wantParked)
		}
	}
	if serr.Round != 1 || len(serr.Behind) != 1 || serr.Behind[0] != 1 {
		t.Errorf("dump names workers %v behind round %d, want [1] behind round 1", serr.Behind, serr.Round)
	}
	msg := serr.Error()
	for _, want := range []string{"stalled", "no progress", "worker 1: never arrived in round 1", "core 0:", "core 3:", "parked="} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump message missing %q:\n%s", want, msg)
		}
	}
}

// TestWatchdogQuietOnHealthyRun: a normal run under a tight budget must
// not trip the watchdog as long as progress continues.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	m := newTestMachine(t, workload.NewFFT(64), 4)
	res, err := RunParallel(m, RunConfig{Scheme: BoundedSlack(16), StallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("empty results")
	}
}

// TestParallelHorizonClamp: with the max-local clamp no core thread may
// tick past MaxCycles, even under unbounded slack where the horizon is
// the only wall.
func TestParallelHorizonClamp(t *testing.T) {
	const horizon = 300
	m := newTestMachine(t, workload.NewPrivate(65536, 100), 4)
	res, err := RunParallel(m, RunConfig{Scheme: UnboundedSlack(), MaxCycles: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > horizon {
		t.Errorf("global time %d past horizon %d", res.Cycles, horizon)
	}
	for i, s := range res.PerCore {
		if s.Cycles > horizon {
			t.Errorf("core %d ticked to %d, past horizon %d", i, s.Cycles, horizon)
		}
	}
}

// TestDeterministicHorizonClamp mirrors the horizon invariant on the
// deterministic host.
func TestDeterministicHorizonClamp(t *testing.T) {
	const horizon = 300
	m := newTestMachine(t, workload.NewPrivate(65536, 100), 4)
	res := MustRun(m, RunConfig{Scheme: UnboundedSlack(), Seed: 9, MaxCycles: horizon})
	if res.Cycles > horizon {
		t.Errorf("global time %d past horizon %d", res.Cycles, horizon)
	}
	for i, s := range res.PerCore {
		if s.Cycles > horizon {
			t.Errorf("core %d ticked to %d, past horizon %d", i, s.Cycles, horizon)
		}
	}
}

// TestLaxP2PSingleCore: with one core there is no partner to pick; both
// hosts must degenerate to free-running instead of panicking in Intn(0).
func TestLaxP2PSingleCore(t *testing.T) {
	w := workload.NewPrivate(64, 2)
	mp := newTestMachine(t, w, 1)
	par, err := RunParallel(mp, RunConfig{Scheme: LaxP2PScheme(32, 8)})
	if err != nil {
		t.Fatalf("parallel 1-core lax-p2p: %v", err)
	}
	if par.Committed == 0 {
		t.Fatal("parallel 1-core lax-p2p committed nothing")
	}
	if err := w.VerifyCores(mp.Memory(), 1); err != nil {
		t.Fatalf("parallel 1-core lax-p2p functional: %v", err)
	}
	md := newTestMachine(t, w, 1)
	det := MustRun(md, RunConfig{Scheme: LaxP2PScheme(32, 8), Seed: 5})
	if det.Committed == 0 {
		t.Fatal("deterministic 1-core lax-p2p committed nothing")
	}
	if err := w.VerifyCores(md.Memory(), 1); err != nil {
		t.Fatalf("deterministic 1-core lax-p2p functional: %v", err)
	}
}

// TestStallDumpIncludesTraceTail: attaching a ring to a StallError copies
// at most the last stallTraceTail events and the dump renders them.
func TestStallDumpIncludesTraceTail(t *testing.T) {
	ring := trace.NewRing(64)
	for i := 0; i < 40; i++ {
		ring.Addf(int64(i), i%4, trace.Request, "event-%d", i)
	}
	serr := &StallError{Budget: time.Second}
	serr.attachTrace(ring)
	if len(serr.Trace) != stallTraceTail {
		t.Fatalf("trace tail has %d events, want %d", len(serr.Trace), stallTraceTail)
	}
	if serr.TraceTotal != 40 {
		t.Errorf("TraceTotal = %d, want 40", serr.TraceTotal)
	}
	msg := serr.Error()
	for _, want := range []string{"trace tail (last 32 of 40 events):", "event-39", "event-8"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump message missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "event-7\n") {
		t.Error("dump kept events past the tail bound")
	}

	// An untraced run (nil ring) attaches nothing and renders no tail.
	plain := &StallError{Budget: time.Second}
	plain.attachTrace(nil)
	if len(plain.Trace) != 0 || strings.Contains(plain.Error(), "trace tail") {
		t.Error("nil ring produced a trace tail")
	}
}

// TestParallelHostFeedsTraceRing: the parallel host wires the configured
// ring into the uncore and the manager, so a traced parallel run records
// serviced requests and checkpoints — the same ring a stall dump taps.
func TestParallelHostFeedsTraceRing(t *testing.T) {
	ring := trace.NewRing(4096)
	m := newTestMachine(t, workload.NewFFT(64), 4)
	res, err := RunParallel(m, RunConfig{
		Scheme:             BoundedSlack(16),
		CheckpointInterval: 256,
		Tracer:             ring,
	})
	if err != nil {
		t.Fatalf("traced parallel run failed: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("empty results")
	}
	out := ring.String()
	if !strings.Contains(out, "request") {
		t.Error("no uncore requests traced on the parallel host")
	}
	if !strings.Contains(out, "ckpt") {
		t.Error("no checkpoints traced on the parallel host")
	}
	if ring.Total() == 0 {
		t.Error("ring recorded no events")
	}
}

// TestParallelSUDriftCap: every round's wall is capped at global +
// HostDriftCap, the drift cap the deterministic host applies, so su on the
// parallel host cannot run away from the deterministic host's simulated
// time however the host schedules the workers (before the cap this run
// did not finish within the budget). An interrupt after the 10 s budget
// turns a runaway into a failure instead of a hang.
func TestParallelSUDriftCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w := workload.NewFFT(256)
	det := MustRun(newTestMachine(t, w, 8), RunConfig{Scheme: UnboundedSlack(), Seed: 1})
	var late atomic.Bool
	timer := time.AfterFunc(10*time.Second, func() { late.Store(true) })
	defer timer.Stop()
	m := newTestMachine(t, w, 8)
	par, err := RunParallel(m, RunConfig{Scheme: UnboundedSlack(), Interrupt: &late})
	if errors.Is(err, ErrInterrupted) {
		t.Fatal("su on the parallel host did not finish within 10 s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(m.Memory()); err != nil {
		t.Fatalf("functional: %v", err)
	}
	if limit := det.Cycles * 3 / 2; par.Cycles > limit {
		t.Errorf("parallel su ran to %d cycles, over 1.5x the deterministic host's %d", par.Cycles, det.Cycles)
	}
}

// TestParallelConcurrentRuns: two runs at GOMAXPROCS(2) start two workers
// each, so four goroutines share two processors. A barrier wait that never
// yielded would hold a processor its own run's other worker needs; both
// runs must finish, and cc must stay exact in both.
func TestParallelConcurrentRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w := workload.NewFFT(256)
	det := canonical(MustRun(newTestMachine(t, w, 8), RunConfig{Scheme: CycleByCycle(), Seed: 1}))
	errs := make(chan error, 2)
	for k := 0; k < 2; k++ {
		m := newTestMachine(t, w, 8)
		go func() {
			res, err := RunParallel(m, RunConfig{Scheme: CycleByCycle()})
			if err == nil && !reflect.DeepEqual(canonical(res), det) {
				err = fmt.Errorf("cc differs from the deterministic host: %d vs %d cycles", res.Cycles, det.Cycles)
			}
			errs <- err
		}()
	}
	for k := 0; k < 2; k++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent parallel runs did not finish")
		}
	}
}
