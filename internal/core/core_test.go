package core

import (
	"testing"

	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
)

// harness drives a single core with a loopback memory system: every
// request is serviced after a fixed latency with an exclusive grant, so
// the core model can be tested in isolation from the uncore.
type harness struct {
	core *Core
	mem  *mem.Memory
	sync *syncctl.Controller
	outQ *event.Queue[event.Request]
	inQ  *event.Queue[event.Msg]

	latency int64
	served  int
}

func newHarness(t testing.TB, build func(b *isa.Builder)) *harness {
	t.Helper()
	b := isa.NewBuilder("test")
	build(b)
	prog, err := b.Program()
	if err != nil {
		t.Fatalf("program: %v", err)
	}
	return newHarnessProg(t, prog)
}

func newHarnessProg(t testing.TB, prog *isa.Program) *harness {
	t.Helper()
	h := &harness{
		mem:     mem.New(),
		sync:    syncctl.New(1),
		outQ:    event.NewQueue[event.Request](),
		inQ:     event.NewQueue[event.Msg](),
		latency: 10,
	}
	c, err := New(DefaultConfig(0), prog, h.mem, h.sync, h.outQ, h.inQ)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.core = c
	return h
}

// pump services all pending requests with exclusive grants.
func (h *harness) pump() {
	for {
		req, ok := h.outQ.Pop()
		if !ok {
			return
		}
		h.served++
		if req.Kind == coherence.BusWB {
			continue
		}
		h.inQ.Push(event.Msg{
			Kind:     event.MsgReply,
			ReqID:    req.ID,
			LineAddr: req.LineAddr,
			NewState: coherence.GrantState(req.Kind, false),
			TS:       req.TS + h.latency,
		})
	}
}

// run ticks until the core halts or maxCycles elapse; it fails the test on
// timeout.
func (h *harness) run(t *testing.T, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if h.core.Halted() {
			return
		}
		h.core.Tick()
		h.pump()
	}
	t.Fatalf("core did not halt in %d cycles: %v", maxCycles, h.core)
}

func TestALUProgram(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 6)
		b.Li(4, 7)
		b.Op3(isa.Mul, 5, 3, 4)
		b.OpImm(isa.Addi, 5, 5, 8)
		b.Op3(isa.Sub, 6, 5, 3)
		b.Halt()
	})
	h.run(t, 2000)
	if got := h.core.Reg(5); got != 50 {
		t.Errorf("r5 = %d, want 50", got)
	}
	if got := h.core.Reg(6); got != 44 {
		t.Errorf("r6 = %d, want 44", got)
	}
	if h.core.Stats().Committed != 6 {
		t.Errorf("committed = %d, want 6", h.core.Stats().Committed)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.OpImm(isa.Addi, isa.Zero, isa.Zero, 99)
		b.Op3(isa.Add, 3, isa.Zero, isa.Zero)
		b.Halt()
	})
	h.run(t, 2000)
	if h.core.Reg(isa.Zero) != 0 || h.core.Reg(3) != 0 {
		t.Error("write to r0 was not discarded")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x1000)
		b.Li(4, 1234)
		b.Store(4, 3, 0)
		b.Load(5, 3, 0)
		b.Load(6, 3, 8) // different word, same line
		b.Halt()
	})
	h.run(t, 5000)
	if h.mem.Read(0x1000) != 1234 {
		t.Errorf("mem = %d, want 1234", h.mem.Read(0x1000))
	}
	if h.core.Reg(5) != 1234 {
		t.Errorf("r5 = %d, want 1234 (forwarded or from cache)", h.core.Reg(5))
	}
	if h.core.Reg(6) != 0 {
		t.Errorf("r6 = %d, want 0", h.core.Reg(6))
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// The load must see the store's value even before the store commits.
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x2000)
		b.Li(4, 77)
		b.Store(4, 3, 0)
		b.Load(5, 3, 0)
		b.Halt()
	})
	h.run(t, 5000)
	if h.core.Reg(5) != 77 {
		t.Errorf("r5 = %d, want 77", h.core.Reg(5))
	}
}

func TestLoopAndBranchPredictorTrains(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 50)
		b.Li(4, 0)
		top := b.Here()
		b.OpImm(isa.Addi, 4, 4, 2)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	h.run(t, 20000)
	if h.core.Reg(4) != 100 {
		t.Errorf("r4 = %d, want 100", h.core.Reg(4))
	}
	st := h.core.Stats()
	if st.Branches != 50 {
		t.Errorf("branches = %d, want 50", st.Branches)
	}
	// A bimodal predictor on a 50-iteration loop mispredicts only the
	// first iteration(s) and the exit.
	if st.Mispredicts > 5 {
		t.Errorf("mispredicts = %d, too many for a tight loop", st.Mispredicts)
	}
	if st.Mispredicts == 0 {
		t.Error("loop exit must mispredict at least once")
	}
}

func TestMispredictRecovery(t *testing.T) {
	// A data-dependent branch alternates taken/not-taken; results must
	// still be architecturally correct.
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 20) // counter
		b.Li(4, 0)  // sum of even iterations
		b.Li(5, 0)  // parity scratch
		top := b.Here()
		odd := b.NewLabel()
		b.OpImm(isa.Andi, 5, 3, 1)
		b.Bne(5, isa.Zero, odd)
		b.OpImm(isa.Addi, 4, 4, 1)
		b.Bind(odd)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	h.run(t, 20000)
	if h.core.Reg(4) != 10 {
		t.Errorf("r4 = %d, want 10", h.core.Reg(4))
	}
	if h.core.Stats().Flushes == 0 {
		t.Error("alternating branch never flushed")
	}
}

func TestICacheMissesCounted(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		for i := 0; i < 100; i++ {
			b.Nop()
		}
		b.Halt()
	})
	h.run(t, 10000)
	if h.core.L1I().Misses == 0 {
		t.Error("no I-cache misses on a cold cache")
	}
	if h.served == 0 {
		t.Error("no fetch requests reached the manager")
	}
}

func TestDCacheMissAndHit(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x4000)
		b.Load(4, 3, 0)  // cold miss
		b.Load(5, 3, 16) // same line: hit after fill
		b.Halt()
	})
	h.mem.Write(0x4000, 5)
	h.mem.Write(0x4010, 6)
	h.run(t, 5000)
	if h.core.Reg(4) != 5 || h.core.Reg(5) != 6 {
		t.Errorf("loads r4=%d r5=%d, want 5,6", h.core.Reg(4), h.core.Reg(5))
	}
	if h.core.L1D().Misses == 0 {
		t.Error("no D-cache miss recorded")
	}
}

func TestMSHRMergesSecondaryMisses(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x5000)
		b.Load(4, 3, 0)
		b.Load(5, 3, 8) // same line while miss outstanding: merge
		b.Halt()
	})
	h.mem.Write(0x5000, 1)
	h.mem.Write(0x5008, 2)
	h.run(t, 5000)
	if h.core.Reg(4) != 1 || h.core.Reg(5) != 2 {
		t.Errorf("merged loads r4=%d r5=%d", h.core.Reg(4), h.core.Reg(5))
	}
}

func TestLockUnlockViaController(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, int64(0x9000))
		b.Lock(3, 0)
		b.Li(4, 5)
		b.Unlock(3, 0)
		b.Halt()
	})
	h.run(t, 5000)
	if sc := h.sync.Counts(); sc.Acquires != 1 || sc.Releases != 1 {
		t.Errorf("lock traffic %d/%d, want 1/1", sc.Acquires, sc.Releases)
	}
	if h.sync.LocksHeld() != 0 {
		t.Error("lock leaked")
	}
}

func TestLockSpinsWhenHeld(t *testing.T) {
	prog := func(b *isa.Builder) {
		b.Li(3, int64(0x9000))
		b.Lock(3, 0)
		b.Unlock(3, 0)
		b.Halt()
	}
	b := isa.NewBuilder("spin")
	prog(b)
	h := newHarnessProg(t, b.MustProgram())
	// Pre-hold the lock with a phantom second core.
	h.sync = syncctl.New(2)
	h.core.sync = h.sync
	h.sync.TryLock(0x9000, 1, 0)
	for i := 0; i < 100; i++ {
		h.core.Tick()
		h.pump()
	}
	if h.core.Halted() {
		t.Fatal("core passed a held lock")
	}
	if h.core.Stats().LockRetries == 0 {
		t.Fatal("no lock retries recorded")
	}
	h.sync.Unlock(0x9000, 1, h.core.Now())
	h.run(t, 5000)
}

func TestBarrierSingleCoreReleases(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Barrier(0)
		b.Li(3, 1)
		b.Halt()
	})
	h.run(t, 5000) // numCores=1: barrier releases immediately
	if h.core.Reg(3) != 1 {
		t.Error("code after barrier did not run")
	}
}

func TestHaltStopsCommitment(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 1)
		b.Halt()
		b.Li(3, 99) // must never commit
	})
	h.run(t, 5000)
	committed := h.core.Stats().Committed
	for i := 0; i < 50; i++ {
		h.core.Tick()
	}
	if h.core.Reg(3) != 1 {
		t.Errorf("r3 = %d, instruction after halt committed", h.core.Reg(3))
	}
	if h.core.Stats().Committed != committed {
		t.Error("commits after halt")
	}
	if h.core.Stats().IdleAfterEnd == 0 {
		t.Error("idle cycles not counted")
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x6000)
		// A long chain of dependent loads to fill the window.
		for i := 0; i < 200; i++ {
			b.Load(4, 3, int64(i*8)%512)
		}
		b.Halt()
	})
	for i := 0; i < 3000 && !h.core.Halted(); i++ {
		h.core.Tick()
		if h.core.InFlight() > DefaultConfig(0).ROBSize {
			t.Fatalf("ROB grew to %d", h.core.InFlight())
		}
		h.pump()
	}
}

func TestCPIWithinSanity(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 200)
		b.Li(4, 0)
		top := b.Here()
		b.OpImm(isa.Addi, 4, 4, 1)
		b.OpImm(isa.Addi, 5, 5, 1)
		b.OpImm(isa.Addi, 6, 6, 1)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	h.run(t, 20000)
	cpi := h.core.Stats().CPI()
	// Independent ALU chains on a 4-wide core: CPI must be comfortably
	// below 2 and above the theoretical 0.25.
	if cpi < 0.25 || cpi > 2 {
		t.Errorf("CPI = %v out of sanity range", cpi)
	}
}

func TestStatsCPIZeroWhenNothingCommitted(t *testing.T) {
	var s Stats
	if s.CPI() != 0 {
		t.Error("CPI of empty stats not 0")
	}
}

// replyFor builds the harness's standard exclusive-grant reply.
func replyFor(req event.Request, latency int64) event.Msg {
	return event.Msg{
		Kind:     event.MsgReply,
		ReqID:    req.ID,
		LineAddr: req.LineAddr,
		NewState: coherence.GrantState(req.Kind, false),
		TS:       req.TS + latency,
	}
}

// copyMem and copySync deep-copy the memory image and the sync
// controller the way a checkpoint does.
func copyMem(m *mem.Memory) *mem.Memory {
	c := mem.New()
	m.SnapshotInto(c)
	return c
}

func copySync(s *syncctl.Controller) *syncctl.Controller {
	c := syncctl.New(0)
	s.SnapshotInto(c)
	return c
}
