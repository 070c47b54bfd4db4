package core

import (
	"testing"

	"slacksim/internal/isa"
)

func TestPredictorColdNotTaken(t *testing.T) {
	p := NewPredictor(64)
	if p.Predict(0) {
		t.Error("cold predictor predicts taken")
	}
}

func TestPredictorTrainsToTaken(t *testing.T) {
	p := NewPredictor(64)
	p.Update(5, true)
	if p.Predict(5) {
		t.Error("weakly-not-taken flipped after one update")
	}
	p.Update(5, true)
	if !p.Predict(5) {
		t.Error("two taken updates did not flip the counter")
	}
}

func TestPredictorSaturates(t *testing.T) {
	p := NewPredictor(64)
	for i := 0; i < 10; i++ {
		p.Update(5, true)
	}
	// One not-taken from saturation must not flip the prediction.
	p.Update(5, false)
	if !p.Predict(5) {
		t.Error("saturated counter flipped after one not-taken")
	}
	p.Update(5, false)
	p.Update(5, false)
	if p.Predict(5) {
		t.Error("three not-taken did not retrain")
	}
}

func TestPredictorIndexAliasing(t *testing.T) {
	p := NewPredictor(16)
	p.Update(3, true)
	p.Update(3, true)
	// pc 19 aliases pc 3 in a 16-entry table.
	if !p.Predict(19) {
		t.Error("aliased entry not shared")
	}
	// pc 4 is independent.
	if p.Predict(4) {
		t.Error("independent entry polluted")
	}
}

func TestPredictorSnapshotRestore(t *testing.T) {
	p := NewPredictor(32)
	p.Update(1, true)
	p.Update(1, true)
	p.Predict(1)
	snap := p.Snapshot()
	p.Update(1, false)
	p.Update(1, false)
	p.Update(1, false)
	p.Restore(snap)
	if !p.Predict(1) {
		t.Error("restore lost training")
	}
	if p.Lookups != snap.Lookups+1 {
		t.Errorf("lookups after restore = %d", p.Lookups)
	}
	// Deep copy: retraining the restored predictor must not touch the
	// snapshot.
	p.Update(1, false)
	p.Update(1, false)
	p.Update(1, false)
	restored := NewPredictor(32)
	restored.Restore(snap)
	if !restored.Predict(1) {
		t.Error("snapshot aliased live counters")
	}
}

func TestReadsTable(t *testing.T) {
	check := func(op isa.Op, wantS1, wantS2 bool) {
		t.Helper()
		r := op.Info().Reads
		if s1, s2 := r[0], r[1]; s1 != wantS1 || s2 != wantS2 {
			t.Errorf("%v reads (%v,%v), want (%v,%v)", op, r[0], r[1], wantS1, wantS2)
		}
	}
	check(isa.Add, true, true)
	check(isa.FMul, true, true)
	check(isa.Addi, true, false)
	check(isa.FSqrt, true, false)
	check(isa.Itof, true, false)
	check(isa.Lui, false, false)
	check(isa.Load, true, false)
	check(isa.Store, true, true)
	check(isa.Beq, true, true)
	check(isa.Jmp, false, false)
	check(isa.LockAcq, false, false)
	check(isa.Barrier, false, false)
	check(isa.Halt, false, false)
	check(isa.Nop, false, false)
}

func TestWritesDestTable(t *testing.T) {
	check := func(in isa.Inst, want bool) {
		t.Helper()
		if got := writesDest(in); got != want {
			t.Errorf("writesDest(%v dst=r%d) = %v, want %v", in.Op, in.Dst, got, want)
		}
	}
	check(isa.Inst{Op: isa.Add, Dst: 3}, true)
	check(isa.Inst{Op: isa.Add, Dst: isa.Zero}, false) // r0 is not renamed
	check(isa.Inst{Op: isa.Load, Dst: 4}, true)
	check(isa.Inst{Op: isa.Store, Dst: 4}, false)
	check(isa.Inst{Op: isa.Beq, Dst: 4}, false)
	check(isa.Inst{Op: isa.Barrier, Dst: 4}, false)
	check(isa.Inst{Op: isa.Halt}, false)
}
