package core

import (
	"testing"

	"slacksim/internal/isa"
)

// runToHalt drives the harness and returns total cycles at halt.
func (h *harness) runToHalt(t *testing.T) int64 {
	t.Helper()
	h.run(t, 100000)
	return h.core.Stats().Cycles
}

// cyclesFor builds and runs a program, returning its cycle count.
func cyclesFor(t *testing.T, build func(b *isa.Builder)) int64 {
	t.Helper()
	h := newHarness(t, build)
	return h.runToHalt(t)
}

// TestExecLatencies pins the per-class execution latencies by measuring
// dependent chains: N back-to-back dependent ops of latency L add N·L
// cycles over the baseline.
func TestExecLatencies(t *testing.T) {
	const chain = 32
	base := cyclesFor(t, func(b *isa.Builder) {
		b.Li(3, 1)
		b.Halt()
	})
	cases := []struct {
		name    string
		op      isa.Op
		latency int64
	}{
		{"add", isa.Add, 1},
		{"mul", isa.Mul, 3},
		{"div", isa.Div, 12},
		{"fadd", isa.FAdd, 2},
		{"fmul", isa.FMul, 4},
		{"fdiv", isa.FDiv, 12},
	}
	measured := map[string]int64{}
	for _, tc := range cases {
		got := cyclesFor(t, func(b *isa.Builder) {
			b.Li(3, 1)
			b.Li(4, 3)
			for i := 0; i < chain; i++ {
				b.Op3(tc.op, 4, 4, 3) // dependent chain
			}
			b.Halt()
		})
		delta := got - base
		measured[tc.name] = delta
		want := int64(chain) * tc.latency
		// The extra cycles are the chain latency plus the cold I-fetch
		// misses for the chain's own code (a few lines).
		if delta < want || delta > want+64 {
			t.Errorf("%s chain of %d: %d extra cycles, want ~%d",
				tc.name, chain, delta, want)
		}
	}
	// Latency classes must order correctly regardless of fetch noise.
	if !(measured["add"] < measured["mul"] && measured["mul"] < measured["div"]) {
		t.Errorf("integer latency ordering broken: %v", measured)
	}
	if !(measured["fadd"] < measured["fmul"] && measured["fmul"] < measured["fdiv"]) {
		t.Errorf("float latency ordering broken: %v", measured)
	}
}

// TestIndependentOpsOverlap: independent ops of the same class pipeline,
// so 32 independent multiplies cost far less than 32 dependent ones.
func TestIndependentOpsOverlap(t *testing.T) {
	dep := cyclesFor(t, func(b *isa.Builder) {
		b.Li(3, 1)
		b.Li(4, 3)
		for i := 0; i < 32; i++ {
			b.Op3(isa.Mul, 4, 4, 3)
		}
		b.Halt()
	})
	indep := cyclesFor(t, func(b *isa.Builder) {
		b.Li(3, 1)
		for i := 0; i < 32; i++ {
			b.Op3(isa.Mul, isa.Reg(4+i%8), 3, 3)
		}
		b.Halt()
	})
	if indep >= dep {
		t.Errorf("independent mults (%d cycles) not faster than dependent (%d)", indep, dep)
	}
}

// TestIssueWidthLimits: more than IssueWidth independent single-cycle ops
// per cycle cannot issue; a long stream of independent adds commits at
// most IssueWidth per cycle.
func TestIssueWidthLimits(t *testing.T) {
	const n = 200
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 1)
		for i := 0; i < n; i++ {
			b.Op3(isa.Add, isa.Reg(4+i%8), 3, 3)
		}
		b.Halt()
	})
	cycles := h.runToHalt(t)
	minCycles := int64(n / DefaultConfig(0).IssueWidth)
	if cycles < minCycles {
		t.Errorf("%d adds in %d cycles beats the %d-wide issue limit",
			n, cycles, DefaultConfig(0).IssueWidth)
	}
}

// TestMemPortLimit: loads are bounded by MemPortsPerCycle (2), so a
// stream of independent cache-hitting loads takes at least n/2 cycles.
func TestMemPortLimit(t *testing.T) {
	const n = 64
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x1000)
		b.Load(4, 3, 0) // warm the line
		for i := 0; i < n; i++ {
			b.Load(isa.Reg(5+i%8), 3, 8)
		}
		b.Halt()
	})
	cycles := h.runToHalt(t)
	if cycles < int64(n)/2 {
		t.Errorf("%d loads in %d cycles beats the 2-port limit", n, cycles)
	}
}

// TestLoadMissRoundTrip pins the cold-miss latency: issue + request
// round trip (harness latency 10) + completion.
func TestLoadMissRoundTrip(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x2000)
		b.Load(4, 3, 0)
		b.Halt()
	})
	h.mem.Write(0x2000, 42)
	cycles := h.runToHalt(t)
	if cycles < h.latency {
		t.Errorf("miss completed in %d cycles, below the %d-cycle reply latency",
			cycles, h.latency)
	}
	if h.core.Reg(4) != 42 {
		t.Errorf("loaded %d", h.core.Reg(4))
	}
}

// TestMispredictPenaltyVisible: a hard-to-predict branch pattern costs
// measurably more than an always-taken loop with the same trip count.
func TestMispredictPenaltyVisible(t *testing.T) {
	regular := cyclesFor(t, func(b *isa.Builder) {
		b.Li(3, 64)
		top := b.Here()
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	// Alternating taken/not-taken inner branch (bimodal cannot learn it).
	alternating := cyclesFor(t, func(b *isa.Builder) {
		b.Li(3, 64)
		top := b.Here()
		skip := b.NewLabel()
		b.OpImm(isa.Andi, 4, 3, 1)
		b.Bne(4, isa.Zero, skip)
		b.Nop()
		b.Bind(skip)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	// The alternating version runs 3 extra instructions per iteration but
	// pays far more than 3 cycles — the flush penalty dominates.
	if alternating < regular+64 {
		t.Errorf("alternating branches cost %d vs %d; mispredictions too cheap",
			alternating, regular)
	}
}

// TestSyncSerializesDispatch: instructions after a lock cannot commit in
// the same cycle burst as those before it — the sync op drains the ROB.
func TestSyncSerializesDispatch(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, int64(0x9000))
		b.Lock(3, 0)
		b.Unlock(3, 0)
		b.Halt()
	})
	// Run cycle by cycle; while the lock has not committed, nothing
	// younger may be in flight beyond it.
	for i := 0; i < 200 && !h.core.Halted(); i++ {
		h.core.Tick()
		h.pump()
		c := h.core
		if c.InFlight() > 0 && c.entry(c.robHead).inst.Op == isa.LockAcq {
			for seq := c.robHead + 1; seq < c.nextSeq; seq++ {
				if e := c.entry(seq); e.state != stDispatched {
					t.Fatalf("younger op %v advanced past an uncommitted lock", e.inst)
				}
			}
		}
	}
}

// TestReplyHeldUntilTimestamp: a reply with a future timestamp must not
// take effect early (the paper's InQ protocol).
func TestReplyHeldUntilTimestamp(t *testing.T) {
	b := isa.NewBuilder("hold")
	b.Li(3, 0x3000)
	b.Load(4, 3, 0)
	b.Halt()
	h := newHarnessProg(t, b.MustProgram())
	h.mem.Write(0x3000, 9)
	h.latency = 50
	start := h.core.Now()
	h.run(t, 10000)
	if h.core.Stats().Cycles-start < 50 {
		t.Errorf("load completed before the reply timestamp (cycles=%d)", h.core.Stats().Cycles)
	}
	if h.core.Reg(4) != 9 {
		t.Errorf("loaded %d", h.core.Reg(4))
	}
}

// TestDirtyVictimWritesBack: evicting a modified line emits a BusWB.
func TestDirtyVictimWritesBack(t *testing.T) {
	cfg := DefaultConfig(0)
	sets := cfg.L1D.Sets()
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 0x10000)
		b.Li(4, 7)
		b.Store(4, 3, 0) // dirty line X
		// Delay the conflicting loads behind a slow dependent chain so
		// the store commits (and last touches X) before they fill the
		// set; X is then the LRU way when the set overflows.
		b.Li(7, 1)
		for i := 0; i < 8; i++ {
			b.Op3(isa.Div, 7, 7, 7)
		}
		b.Op3(isa.Xor, 7, 7, 7) // 0, but dependent on the chain
		b.Op3(isa.Add, 6, 3, 7) // delayed copy of the base address
		// Touch enough same-set lines to evict X (4-way set).
		for w := 1; w <= 4; w++ {
			off := int64(w * sets * 64)
			b.Load(isa.Reg(5), 6, off)
		}
		b.Halt()
	})
	sawWB := false
	for i := 0; i < 5000 && !h.core.Halted(); i++ {
		h.core.Tick()
		for {
			req, ok := h.outQ.Pop()
			if !ok {
				break
			}
			if req.Kind.String() == "BusWB" {
				sawWB = true
				continue
			}
			h.inQ.Push(replyFor(req, h.latency))
		}
	}
	if !sawWB {
		t.Error("dirty eviction produced no writeback")
	}
}
