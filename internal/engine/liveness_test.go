package engine

// Liveness regressions for the goroutine-parallel host: the lost-wakeup
// shutdown race, the stall watchdog's structured dump, the MaxCycles
// horizon clamp, and the Lax-P2P single-core partner-pick panic.

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slacksim/internal/trace"
	"slacksim/internal/workload"
)

// newParkedRun builds a parRun whose cores park immediately (maxLocal
// stays 0) and starts their goroutines without a manager, exposing the
// park/stop interleaving directly.
func newParkedRun(t *testing.T, cores int) (*parRun, *sync.WaitGroup) {
	t.Helper()
	m := newTestMachine(t, workload.NewPrivate(4, 1), cores)
	r := &parRun{
		manager:   manager{m: m, cfg: RunConfig{Scheme: CycleByCycle()}.withDefaults()},
		localTime: make([]atomic.Int64, cores),
		maxLocal:  make([]atomic.Int64, cores),
		committed: make([]atomic.Uint64, cores),
		retired:   make([]atomic.Bool, cores),
		parked:    make([]bool, cores),
		kick:      make(chan struct{}, 1),
	}
	r.cond = sync.NewCond(&r.mu)
	var wg sync.WaitGroup
	for i := 0; i < cores; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.coreLoop(i)
		}(i)
	}
	return r, &wg
}

// waitOrFatal fails the test if the core goroutines do not exit in time —
// the signature of a lost wakeup.
func waitOrFatal(t *testing.T, wg *sync.WaitGroup, msg string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal(msg)
	}
}

// captiveHook installs a parkHook that reports when a core is inside the
// lost-wakeup window (park predicate evaluated with stop==false, cond.Wait
// not yet entered, mu held) and holds it there until release is closed.
func captiveHook(t *testing.T) (entered chan int, release chan struct{}) {
	t.Helper()
	entered = make(chan int, 16)
	release = make(chan struct{})
	parkHook = func(core int) {
		select {
		case entered <- core:
		default:
		}
		<-release
	}
	t.Cleanup(func() { parkHook = nil })
	return entered, release
}

// awaitWindow waits until a core reports it is captive in the park window.
func awaitWindow(t *testing.T, entered chan int) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("core never reached the park window")
	}
}

// TestShutdownBroadcastNoLostWakeup forces the exact park/stop
// interleaving the unlocked Broadcast lost: a core is held captive between
// its park predicate (stop observed false) and cond.Wait while the test
// shuts the run down. The locked protocol must block on mu until the core
// is actually waiting, so the broadcast lands; the pre-fix code
// (stop.Store + Broadcast without mu) completes while the core is captive
// and leaves it asleep forever — which this test reports as a fatal
// timeout instead of hanging CI.
func TestShutdownBroadcastNoLostWakeup(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		entered, release := captiveHook(t)
		r, wg := newParkedRun(t, 1)
		awaitWindow(t, entered)
		sdDone := make(chan struct{})
		go func() {
			r.shutdown()
			close(sdDone)
		}()
		select {
		case <-sdDone:
			// Shutdown finished while the core was captive pre-Wait: its
			// broadcast can only have been issued without mu (the bug).
			close(release)
			waitOrFatal(t, wg, "unlocked shutdown broadcast was lost: core asleep forever")
			t.Fatal("shutdown completed while a core held mu inside the park window")
		case <-time.After(50 * time.Millisecond):
			// Correct: shutdown is blocked on mu until the core waits.
		}
		close(release)
		waitOrFatal(t, wg, "core goroutine missed the stop wakeup (lost wakeup)")
		<-sdDone
		parkHook = nil
	}
}

// TestMaxLocalRaiseNoLostWakeup forces the same window against the
// manager's other wakeup path: raising the max local times. The raise
// must not complete while a core is captive pre-Wait; once released, the
// core must observe the new wall and tick forward.
func TestMaxLocalRaiseNoLostWakeup(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		entered, release := captiveHook(t)
		r, wg := newParkedRun(t, 1)
		awaitWindow(t, entered)
		raised := make(chan struct{})
		go func() {
			// The manager's raise path: store and broadcast under mu.
			r.mu.Lock()
			r.maxLocal[0].Store(1)
			r.cond.Broadcast()
			r.mu.Unlock()
			close(raised)
		}()
		select {
		case <-raised:
			t.Fatal("max-local raise completed while a core held mu inside the park window")
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		<-raised
		// The raise must not be lost: the core wakes and ticks to the new
		// wall. A lost wakeup leaves localTime at 0 forever.
		deadline := time.Now().Add(10 * time.Second)
		for r.localTime[0].Load() < 1 {
			if time.Now().After(deadline) {
				t.Fatal("max-local raise broadcast was lost: core asleep forever")
			}
			time.Sleep(time.Millisecond)
		}
		r.shutdown()
		waitOrFatal(t, wg, "core goroutine missed the stop wakeup after a raise")
		parkHook = nil
	}
}

// TestWatchdogStallDump wedges a run on purpose (cores parked, nobody
// raising the wall) and asserts the watchdog fails it with the structured
// per-core dump instead of hanging.
func TestWatchdogStallDump(t *testing.T) {
	r, wg := newParkedRun(t, 3)
	r.cfg.StallTimeout = 50 * time.Millisecond
	wdDone := make(chan struct{})
	go r.watchdog(wdDone)
	waitOrFatal(t, wg, "watchdog did not force-stop the stalled run")
	close(wdDone)
	serr := r.stallErr.Load()
	if serr == nil {
		t.Fatal("watchdog fired but published no StallError")
	}
	if serr.Budget != 50*time.Millisecond {
		t.Errorf("dump budget = %v, want 50ms", serr.Budget)
	}
	if len(serr.Cores) != 3 {
		t.Fatalf("dump has %d cores, want 3", len(serr.Cores))
	}
	for _, c := range serr.Cores {
		if c.LocalTime != 0 || c.MaxLocal != 0 || c.Retired {
			t.Errorf("core %d dump = %+v, want local=0 maxLocal=0 retired=false", c.Core, c)
		}
	}
	msg := serr.Error()
	for _, want := range []string{"stalled", "no progress", "core 0:", "core 2:", "parked="} {
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
