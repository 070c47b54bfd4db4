// Package isa defines the target instruction set simulated by SlackSim.
//
// The ISA is a small load/store RISC with 32 general-purpose 64-bit
// registers (r0 is hardwired to zero), integer and floating-point ALU
// operations, PC-relative branches, and three synchronization primitives
// (LOCK, UNLOCK, BARRIER) that the simulator executes reliably, as the
// paper's MP_Simplesim-derived API does. It stands in for the SimpleScalar
// PISA instruction set used by the original SlackSim: slack-simulation
// behaviour depends on the timing and interleaving of memory and
// synchronization events, not on instruction encodings, so any RISC ISA
// with comparable operation classes exercises the same machinery.
package isa

import "fmt"

// NumRegs is the number of general-purpose registers. Register 0 always
// reads as zero; writes to it are discarded.
const NumRegs = 32

// Reg identifies a general-purpose register.
type Reg uint8

// Conventional register aliases used by the workload kernels.
const (
	Zero Reg = 0 // hardwired zero
	RA   Reg = 1 // return/link (by convention only)
	SP   Reg = 2 // stack pointer (by convention only)
)

// Op enumerates instruction opcodes.
type Op uint8

// Opcode space. Operation classes matter to the core model (they select
// execution latency and functional unit); individual opcodes matter to the
// functional semantics in Exec.
const (
	Nop Op = iota

	// Integer ALU, register-register.
	Add
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Slt // set if less-than (signed)

	// Integer ALU, register-immediate.
	Addi
	Andi
	Ori
	Xori
	Shli
	Shri
	Slti
	Lui // load upper immediate: dst = imm << 32

	// Floating point (operands are float64 bit patterns in GPRs).
	FAdd
	FSub
	FMul
	FDiv
	FSqrt
	FNeg
	Itof // int -> float64 bits
	Ftoi // float64 bits -> int (truncated)
	FLt  // set dst to 1 if float(src1) < float(src2)

	// Memory. Effective address = src1 + imm. Load/Store move 8 bytes.
	Load
	Store

	// Control. Branch target is the absolute instruction index in Imm.
	Beq
	Bne
	Blt // signed less-than
	Bge
	Jmp

	// Synchronization: executed reliably inside the simulator.
	LockAcq // acquire lock at address src1+imm
	LockRel // release lock at address src1+imm
	Barrier // global barrier; Imm selects the barrier variable

	// Halt terminates the hardware thread's program.
	Halt

	numOps // sentinel
)

var opNames = [numOps]string{
	Nop: "nop",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Slt: "slt",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori",
	Shli: "shli", Shri: "shri", Slti: "slti", Lui: "lui",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv",
	FSqrt: "fsqrt", FNeg: "fneg", Itof: "itof", Ftoi: "ftoi", FLt: "flt",
	Load: "load", Store: "store",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge", Jmp: "jmp",
	LockAcq: "lock", LockRel: "unlock", Barrier: "barrier",
	Halt: "halt",
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Class groups opcodes by the functional unit and latency they use in the
// core's execution stage.
type Class uint8

// Operation classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
	ClassSync
	ClassHalt
)

// Unit names the functional-unit pool an operation issues to. The core
// bounds how many operations of each pool start per cycle; UnitALU ops
// are bounded only by the issue width.
type Unit uint8

// Functional-unit pools.
const (
	UnitALU Unit = iota
	UnitMem
	UnitFP
	UnitDiv
	NumUnits
)

// Info is an opcode's row in the op table: everything the core model
// needs to know about an instruction besides its register numbers,
// immediate and operand values.
type Info struct {
	Class Class
	// Reads says which of Src1 and Src2 the out-of-order back end
	// consumes. Sync ops read their base register architecturally at
	// commit, so they read none here.
	Reads [2]bool
	// Writes says whether the op produces a register result; the core
	// does not rename writes to Zero.
	Writes bool
	// Serial marks sync ops and halt: they execute at commit, not in the
	// issue stage, and nothing younger dispatches until they commit.
	Serial bool
	// Unit is the pool the op issues to.
	Unit Unit
	// Latency is the execution latency in cycles of an op that completes
	// on a functional unit. A load's latency is the L1D hit time or the
	// miss round trip instead, and a nop completes at issue.
	Latency uint8
	// A row is padded to eight bytes: the core copies one per
	// instruction per stage, and eight bytes copy in one move.
	_ uint8
}

// Source-operand shapes of the op table.
var (
	reads1  = [2]bool{true, false}
	reads12 = [2]bool{true, true}
)

// computeTiming gives the functional unit and latency of each class of
// register-writing ALU, multiply, divide and floating-point ops.
var computeTiming = [...]struct {
	unit Unit
	lat  uint8
}{
	ClassIntALU: {UnitALU, 1}, ClassIntMul: {UnitALU, 3}, ClassIntDiv: {UnitDiv, 12},
	ClassFPAdd: {UnitFP, 2}, ClassFPMul: {UnitFP, 4}, ClassFPDiv: {UnitDiv, 12},
}

// compute returns the row of a register-writing ALU, multiply, divide or
// floating-point op of class cls.
func compute(cls Class, reads [2]bool) Info {
	t := computeTiming[cls]
	return Info{Class: cls, Reads: reads, Writes: true, Unit: t.unit, Latency: t.lat}
}

// opTable holds one row per opcode value. Rows past Halt are zero: an
// undefined opcode decodes as a nop.
var opTable = [256]Info{
	Add: compute(ClassIntALU, reads12), Sub: compute(ClassIntALU, reads12),
	Mul: compute(ClassIntMul, reads12),
	Div: compute(ClassIntDiv, reads12), Rem: compute(ClassIntDiv, reads12),
	And: compute(ClassIntALU, reads12), Or: compute(ClassIntALU, reads12),
	Xor: compute(ClassIntALU, reads12), Shl: compute(ClassIntALU, reads12),
	Shr: compute(ClassIntALU, reads12), Slt: compute(ClassIntALU, reads12),

	Addi: compute(ClassIntALU, reads1), Andi: compute(ClassIntALU, reads1),
	Ori: compute(ClassIntALU, reads1), Xori: compute(ClassIntALU, reads1),
	Shli: compute(ClassIntALU, reads1), Shri: compute(ClassIntALU, reads1),
	Slti: compute(ClassIntALU, reads1), Lui: compute(ClassIntALU, [2]bool{}),

	FAdd: compute(ClassFPAdd, reads12), FSub: compute(ClassFPAdd, reads12),
	FMul: compute(ClassFPMul, reads12),
	FDiv: compute(ClassFPDiv, reads12), FSqrt: compute(ClassFPDiv, reads1),
	FNeg: compute(ClassIntALU, reads1), Itof: compute(ClassIntALU, reads1),
	Ftoi: compute(ClassIntALU, reads1), FLt: compute(ClassIntALU, reads12),

	Load:  {Class: ClassLoad, Reads: reads1, Writes: true, Unit: UnitMem},
	Store: {Class: ClassStore, Reads: reads12, Unit: UnitMem, Latency: 1},

	Beq: {Class: ClassBranch, Reads: reads12, Latency: 1},
	Bne: {Class: ClassBranch, Reads: reads12, Latency: 1},
	Blt: {Class: ClassBranch, Reads: reads12, Latency: 1},
	Bge: {Class: ClassBranch, Reads: reads12, Latency: 1},
	Jmp: {Class: ClassBranch, Latency: 1},

	LockAcq: {Class: ClassSync, Serial: true},
	LockRel: {Class: ClassSync, Serial: true},
	Barrier: {Class: ClassSync, Serial: true},
	Halt:    {Class: ClassHalt, Serial: true},
}

// Info returns op's row of the op table.
func (op Op) Info() Info { return opTable[op] }

// Class reports the operation class of op.
func (op Op) Class() Class { return opTable[op].Class }

// IsBranch reports whether op redirects control flow.
func (op Op) IsBranch() bool { return op.Class() == ClassBranch }

// IsMem reports whether op accesses data memory (including lock words).
func (op Op) IsMem() bool {
	c := op.Class()
	return c == ClassLoad || c == ClassStore
}

// IsSync reports whether op is a synchronization primitive.
func (op Op) IsSync() bool { return op.Class() == ClassSync }

// Inst is one decoded instruction.
//
// Fields are interpreted per opcode:
//
//	ALU rr:   Dst = Src1 op Src2
//	ALU ri:   Dst = Src1 op Imm
//	Load:     Dst = mem[Src1+Imm]
//	Store:    mem[Src1+Imm] = Src2
//	Branch:   if cond(Src1, Src2) goto Imm (absolute instruction index)
//	Jmp:      goto Imm
//	LockAcq:  acquire lock word at Src1+Imm
//	LockRel:  release lock word at Src1+Imm
//	Barrier:  wait at barrier #Imm
type Inst struct {
	Op   Op
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64
}

// String renders the instruction in a compact assembly-like syntax.
func (in Inst) String() string {
	switch in.Op.Class() {
	case ClassNop, ClassHalt:
		return in.Op.String()
	case ClassLoad:
		return fmt.Sprintf("load r%d, %d(r%d)", in.Dst, in.Imm, in.Src1)
	case ClassStore:
		return fmt.Sprintf("store r%d, %d(r%d)", in.Src2, in.Imm, in.Src1)
	case ClassBranch:
		if in.Op == Jmp {
			return fmt.Sprintf("jmp @%d", in.Imm)
		}
		return fmt.Sprintf("%s r%d, r%d, @%d", in.Op, in.Src1, in.Src2, in.Imm)
	case ClassSync:
		if in.Op == Barrier {
			return fmt.Sprintf("barrier #%d", in.Imm)
		}
		return fmt.Sprintf("%s %d(r%d)", in.Op, in.Imm, in.Src1)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d, imm=%d", in.Op, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}

// Program is a sequence of instructions for one hardware thread. Instruction
// addresses used by the I-cache are InstBytes times the instruction index.
type Program struct {
	Insts []Inst
	// Name identifies the program in stats and traces.
	Name string
}

// InstBytes is the architectural size of one encoded instruction, used to
// derive instruction-fetch addresses for the I-cache.
const InstBytes = 8

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Insts) }

// At returns the instruction at index i, or Halt when i is out of range so
// that a runaway PC self-terminates deterministically.
func (p *Program) At(i int) Inst {
	if i < 0 || i >= len(p.Insts) {
		return Inst{Op: Halt}
	}
	return p.Insts[i]
}

// Validate checks structural well-formedness: branch targets in range and
// register indices below NumRegs. It returns the first problem found.
func (p *Program) Validate() error {
	for i, in := range p.Insts {
		if in.Dst >= NumRegs || in.Src1 >= NumRegs || in.Src2 >= NumRegs {
			return fmt.Errorf("isa: %s inst %d: register out of range", p.Name, i)
		}
		if in.Op.IsBranch() {
			if in.Imm < 0 || in.Imm > int64(len(p.Insts)) {
				return fmt.Errorf("isa: %s inst %d: branch target %d out of range [0,%d]",
					p.Name, i, in.Imm, len(p.Insts))
			}
		}
	}
	return nil
}
