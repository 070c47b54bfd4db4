package isa

import (
	"strings"
	"testing"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		Nop: "nop", Add: "add", FDiv: "fdiv", Load: "load", Store: "store",
		Beq: "beq", Jmp: "jmp", LockAcq: "lock", LockRel: "unlock",
		Barrier: "barrier", Halt: "halt",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op String() = %q", got)
	}
}

func TestOpClass(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{Nop, ClassNop},
		{Add, ClassIntALU}, {Sub, ClassIntALU}, {Slti, ClassIntALU},
		{Lui, ClassIntALU}, {Itof, ClassIntALU}, {FLt, ClassIntALU},
		{Mul, ClassIntMul}, {Div, ClassIntDiv}, {Rem, ClassIntDiv},
		{FAdd, ClassFPAdd}, {FSub, ClassFPAdd},
		{FMul, ClassFPMul},
		{FDiv, ClassFPDiv}, {FSqrt, ClassFPDiv},
		{Load, ClassLoad}, {Store, ClassStore},
		{Beq, ClassBranch}, {Bne, ClassBranch}, {Blt, ClassBranch},
		{Bge, ClassBranch}, {Jmp, ClassBranch},
		{LockAcq, ClassSync}, {LockRel, ClassSync}, {Barrier, ClassSync},
		{Halt, ClassHalt},
	}
	for _, tc := range cases {
		if got := tc.op.Class(); got != tc.want {
			t.Errorf("%v.Class() = %v, want %v", tc.op, got, tc.want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !Beq.IsBranch() || Add.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if !Load.IsMem() || !Store.IsMem() || Add.IsMem() || Barrier.IsMem() {
		t.Error("IsMem wrong")
	}
	if !LockAcq.IsSync() || Load.IsSync() {
		t.Error("IsSync wrong")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: Nop}, "nop"},
		{Inst{Op: Load, Dst: 3, Src1: 4, Imm: 16}, "load r3, 16(r4)"},
		{Inst{Op: Store, Src1: 4, Src2: 5, Imm: 8}, "store r5, 8(r4)"},
		{Inst{Op: Beq, Src1: 1, Src2: 2, Imm: 7}, "beq r1, r2, @7"},
		{Inst{Op: Jmp, Imm: 3}, "jmp @3"},
		{Inst{Op: Barrier, Imm: 2}, "barrier #2"},
		{Inst{Op: LockAcq, Src1: 6, Imm: 8}, "lock 8(r6)"},
		{Inst{Op: Add, Dst: 1, Src1: 2, Src2: 3}, "add r1, r2, r3, imm=0"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestProgramAt(t *testing.T) {
	p := &Program{Insts: []Inst{{Op: Add}, {Op: Sub}}}
	if p.At(0).Op != Add || p.At(1).Op != Sub {
		t.Error("At in range wrong")
	}
	if p.At(-1).Op != Halt || p.At(2).Op != Halt {
		t.Error("At out of range must return Halt")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{Name: "g", Insts: []Inst{
		{Op: Add, Dst: 1, Src1: 2, Src2: 3},
		{Op: Beq, Src1: 1, Src2: 2, Imm: 0},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("good program invalid: %v", err)
	}
	badReg := &Program{Name: "r", Insts: []Inst{{Op: Add, Dst: 40}}}
	if err := badReg.Validate(); err == nil {
		t.Error("register out of range not caught")
	}
	badTarget := &Program{Name: "t", Insts: []Inst{{Op: Jmp, Imm: 5}}}
	if err := badTarget.Validate(); err == nil {
		t.Error("branch target out of range not caught")
	}
	negTarget := &Program{Name: "n", Insts: []Inst{{Op: Jmp, Imm: -1}}}
	if err := negTarget.Validate(); err == nil {
		t.Error("negative branch target not caught")
	}
}

// The oracles below are the opcode switches the op table replaced: the
// class switch, and the core model's operand, destination, issue and
// latency switches.

func classOracle(op Op) Class {
	switch op {
	case Add, Sub, And, Or, Xor, Shl, Shr, Slt,
		Addi, Andi, Ori, Xori, Shli, Shri, Slti, Lui, Itof, Ftoi, FNeg, FLt:
		return ClassIntALU
	case Mul:
		return ClassIntMul
	case Div, Rem:
		return ClassIntDiv
	case FAdd, FSub:
		return ClassFPAdd
	case FMul:
		return ClassFPMul
	case FDiv, FSqrt:
		return ClassFPDiv
	case Load:
		return ClassLoad
	case Store:
		return ClassStore
	case Beq, Bne, Blt, Bge, Jmp:
		return ClassBranch
	case LockAcq, LockRel, Barrier:
		return ClassSync
	case Halt:
		return ClassHalt
	}
	return ClassNop
}

func readsOracle(op Op) [2]bool {
	switch classOracle(op) {
	case ClassIntALU, ClassIntMul, ClassIntDiv, ClassFPAdd, ClassFPMul, ClassFPDiv:
		switch op {
		case Lui:
			return [2]bool{}
		case Addi, Andi, Ori, Xori, Shli, Shri, Slti, FSqrt, FNeg, Itof, Ftoi:
			return [2]bool{true, false}
		}
		return [2]bool{true, true}
	case ClassLoad:
		return [2]bool{true, false}
	case ClassStore:
		return [2]bool{true, true}
	case ClassBranch:
		if op == Jmp {
			return [2]bool{}
		}
		return [2]bool{true, true}
	}
	return [2]bool{}
}

func writesOracle(op Op) bool {
	switch classOracle(op) {
	case ClassIntALU, ClassIntMul, ClassIntDiv, ClassFPAdd, ClassFPMul, ClassFPDiv, ClassLoad:
		return true
	}
	return false
}

func unitOracle(op Op) Unit {
	switch classOracle(op) {
	case ClassLoad, ClassStore:
		return UnitMem
	case ClassFPAdd, ClassFPMul:
		return UnitFP
	case ClassIntDiv, ClassFPDiv:
		return UnitDiv
	}
	return UnitALU
}

// latencyOracle is the core's execution latency by class, for the classes
// that complete on a functional unit (ok false for the others).
func latencyOracle(op Op) (lat uint8, ok bool) {
	switch classOracle(op) {
	case ClassIntALU, ClassBranch, ClassStore:
		return 1, true
	case ClassIntMul:
		return 3, true
	case ClassIntDiv, ClassFPDiv:
		return 12, true
	case ClassFPAdd:
		return 2, true
	case ClassFPMul:
		return 4, true
	}
	return 0, false
}

// TestOpTableMatchesSwitches checks every opcode value's row of the op
// table against the switches it replaced. Values from numOps up decode as
// nops: the zero row, executed by the issue stage, reading and writing
// nothing.
func TestOpTableMatchesSwitches(t *testing.T) {
	for v := 0; v < 256; v++ {
		op := Op(v)
		row := op.Info()
		cls := classOracle(op)
		if row.Class != cls || op.Class() != cls {
			t.Errorf("%v: class %v, want %v", op, row.Class, cls)
		}
		if row.Reads != readsOracle(op) {
			t.Errorf("%v: reads %v, want %v", op, row.Reads, readsOracle(op))
		}
		if row.Writes != writesOracle(op) {
			t.Errorf("%v: writes %v, want %v", op, row.Writes, writesOracle(op))
		}
		if serial := cls == ClassSync || cls == ClassHalt; row.Serial != serial {
			t.Errorf("%v: serial %v, want %v", op, row.Serial, serial)
		}
		if row.Unit != unitOracle(op) {
			t.Errorf("%v: unit %v, want %v", op, row.Unit, unitOracle(op))
		}
		if lat, ok := latencyOracle(op); ok && row.Latency != lat {
			t.Errorf("%v: latency %d, want %d", op, row.Latency, lat)
		}
		if v >= int(numOps) && row != (Info{}) {
			t.Errorf("undefined opcode %d has row %+v, want the zero (nop) row", v, row)
		}
	}
	if Nop.Info() != (Info{}) {
		t.Errorf("nop has row %+v, want the zero row", Nop.Info())
	}
}
