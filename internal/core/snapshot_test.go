package core

import (
	"testing"

	"slacksim/internal/isa"
)

// TestSnapshotRestoreMidFlight checkpoints a core in the middle of a loop
// with in-flight memory traffic and verifies the re-executed run reaches
// the same architectural state — the property the speculative slack
// engine's rollback relies on.
func TestSnapshotRestoreMidFlight(t *testing.T) {
	build := func(b *isa.Builder) {
		b.Li(3, 40) // counter
		b.Li(4, 0)  // sum
		b.Li(6, 0x3000)
		top := b.Here()
		b.Load(5, 6, 0)
		b.Op3(isa.Add, 4, 4, 5)
		b.Store(4, 6, 0)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	}
	h := newHarness(t, build)
	h.mem.Write(0x3000, 1)

	// Advance into the middle of the loop.
	for i := 0; i < 37; i++ {
		h.core.Tick()
		h.pump()
	}
	snap := h.core.Snapshot()
	memSnap := copyMem(h.mem)
	inQSnap := h.inQ.Snapshot()
	outQSnap := h.outQ.Snapshot()
	syncSnap := copySync(h.sync)

	h.run(t, 20000)
	wantR4 := h.core.Reg(4)
	wantMem := h.mem.Read(0x3000)
	wantCommitted := h.core.Stats().Committed

	// Roll back and replay.
	h.core.Restore(snap)
	h.mem.Restore(memSnap)
	h.inQ.Restore(inQSnap)
	h.outQ.Restore(outQSnap)
	h.sync.Restore(syncSnap)

	h.run(t, 20000)
	if got := h.core.Reg(4); got != wantR4 {
		t.Errorf("replayed r4 = %d, want %d", got, wantR4)
	}
	if got := h.mem.Read(0x3000); got != wantMem {
		t.Errorf("replayed mem = %d, want %d", got, wantMem)
	}
	if got := h.core.Stats().Committed; got != wantCommitted {
		t.Errorf("replayed committed = %d, want %d", got, wantCommitted)
	}
}

// TestSnapshotIsDeep mutates the core after a snapshot and checks the
// snapshot still restores the original state.
func TestSnapshotIsDeep(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 100)
		top := b.Here()
		b.OpImm(isa.Addi, 4, 4, 1)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	for i := 0; i < 20; i++ {
		h.core.Tick()
		h.pump()
	}
	snap := h.core.Snapshot()
	r3 := h.core.Reg(3)
	inFlight := h.core.InFlight()
	now := h.core.Now()

	for i := 0; i < 30; i++ {
		h.core.Tick()
		h.pump()
	}
	h.core.Restore(snap)
	if h.core.Reg(3) != r3 || h.core.InFlight() != inFlight || h.core.Now() != now {
		t.Errorf("restore mismatch: r3=%d inflight=%d now=%d, want %d/%d/%d",
			h.core.Reg(3), h.core.InFlight(), h.core.Now(), r3, inFlight, now)
	}
	// Tick the restored core; the snapshot must remain restorable again.
	for i := 0; i < 10; i++ {
		h.core.Tick()
		h.pump()
	}
	h.core.Restore(snap)
	if h.core.Reg(3) != r3 || h.core.Now() != now {
		t.Error("second restore from same snapshot diverged")
	}
}

// TestSnapshotStateWords sanity-checks the cost accounting.
func TestSnapshotStateWords(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 1)
		b.Halt()
	})
	s := h.core.Snapshot()
	if s.StateWords() <= 0 {
		t.Error("snapshot reports no state")
	}
}

// TestRestoreDeterministicReplay runs the same program twice from the same
// snapshot and demands bit-identical commit counts each tick — rollback
// replay must be deterministic.
func TestRestoreDeterministicReplay(t *testing.T) {
	h := newHarness(t, func(b *isa.Builder) {
		b.Li(3, 30)
		b.Li(6, 0x7000)
		top := b.Here()
		b.Store(3, 6, 0)
		b.Load(4, 6, 0)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	for i := 0; i < 25; i++ {
		h.core.Tick()
		h.pump()
	}
	snap := h.core.Snapshot()
	memSnap := copyMem(h.mem)
	inSnap := h.inQ.Snapshot()
	outSnap := h.outQ.Snapshot()

	replay := func() []uint64 {
		h.core.Restore(snap)
		h.mem.Restore(memSnap)
		h.inQ.Restore(inSnap)
		h.outQ.Restore(outSnap)
		var trace []uint64
		for i := 0; i < 300 && !h.core.Halted(); i++ {
			h.core.Tick()
			h.pump()
			trace = append(trace, h.core.Stats().Committed)
		}
		return trace
	}
	a := replay()
	b := replay()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at tick %d: %d vs %d", i, a[i], b[i])
		}
	}
}
