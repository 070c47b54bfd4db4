package core

import (
	"slacksim/internal/cache"
	"slacksim/internal/isa"
	"slacksim/internal/wire"
)

// Bounds on a decoded snapshot, beyond the bytes it must be backed by.
// CheckSnapshot holds a snapshot to the core's own ROB and fetch buffer
// sizes.
const maxWindow, maxPredictor = 1 << 16, 1 << 20

// Encode appends the snapshot for a run snapshot: a core.Snapshot already
// is the checkpointed state, so it is the unit of export. The wakeup
// state of ROB entries is left out; Restore rebuilds it.
func (s *Snapshot) Encode(w *wire.Writer) {
	st := &s.stats
	for _, v := range [...]int64{s.now, int64(s.fetchPC), s.fetchStallUntil, int64(s.serializeSeq), int64(s.nextSeq),
		st.Cycles, st.BarrierWait, st.LockWait, st.IdleAfterEnd} {
		w.Varint(v)
	}
	for _, v := range [...]uint64{s.reqID, st.Committed, st.Loads, st.Stores, st.Branches, st.Mispredicts, st.Flushes, st.LockRetries} {
		w.Uvarint(v)
	}
	w.Bool(s.halted)
	for i := range s.regs {
		w.Uvarint(s.regs[i])
		w.Int(s.mapTable[i])
	}
	wire.List(w, s.rob, func(e robEntry) {
		for _, v := range [...]int64{int64(e.seq), int64(e.pc), int64(e.srcProd[0]), int64(e.srcProd[1]), e.doneAt, e.nextLockTry} {
			w.Varint(v)
		}
		for _, v := range [...]uint64{e.result, e.addr, e.storeVal, e.barrierGen} {
			w.Uvarint(v)
		}
		for _, b := range [...]bool{e.hasResult, e.predTaken, e.actualTaken, e.resolved, e.addrValid, e.written, e.barrierArrived} {
			w.Bool(b)
		}
		w.Byte(byte(e.state))
		encodeInst(w, e.inst)
	})
	wire.List(w, s.fetchBuf, func(f fetched) {
		w.Int(f.pc)
		w.Bool(f.predTaken)
		encodeInst(w, f.inst)
	})
	s.l1i.Encode(w)
	s.l1d.Encode(w)
	s.imshr.Encode(w)
	s.dmshr.Encode(w)
	s.pred.Encode(w)
}

// Decode reads a snapshot written by Encode into s. What the snapshot
// holds is CheckSnapshot's to judge.
func (s *Snapshot) Decode(r *wire.Reader) {
	*s = Snapshot{l1i: new(cache.Cache), l1d: new(cache.Cache), imshr: new(cache.MSHRFile), dmshr: new(cache.MSHRFile), pred: new(Predictor)}
	st := &s.stats
	s.now, s.fetchPC, s.fetchStallUntil, s.serializeSeq, s.nextSeq = r.Varint(), r.Int(), r.Varint(), r.Int(), r.Int()
	st.Cycles, st.BarrierWait, st.LockWait, st.IdleAfterEnd = r.Varint(), r.Varint(), r.Varint(), r.Varint()
	s.reqID, st.Committed, st.Loads, st.Stores = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	st.Branches, st.Mispredicts, st.Flushes, st.LockRetries = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	s.halted = r.Bool()
	for i := range s.regs {
		s.regs[i], s.mapTable[i] = r.Uvarint(), r.Int()
	}
	s.rob = wire.ReadList(r, "ROB entries", maxWindow, func() (e robEntry) {
		e.seq, e.pc, e.srcProd[0], e.srcProd[1], e.doneAt, e.nextLockTry = r.Int(), r.Int(), r.Int(), r.Int(), r.Varint(), r.Varint()
		e.result, e.addr, e.storeVal, e.barrierGen = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
		e.hasResult, e.predTaken, e.actualTaken, e.resolved = r.Bool(), r.Bool(), r.Bool(), r.Bool()
		e.addrValid, e.written, e.barrierArrived = r.Bool(), r.Bool(), r.Bool()
		e.state, e.inst = entryState(r.Byte()), decodeInst(r)
		return e
	})
	s.fetchBuf = wire.ReadList(r, "fetch buffer entries", maxWindow, func() fetched {
		return fetched{pc: r.Int(), predTaken: r.Bool(), inst: decodeInst(r)}
	})
	s.l1i.Decode(r)
	s.l1d.Decode(r)
	s.imshr.Decode(r)
	s.dmshr.Decode(r)
	s.pred.Decode(r)
}

func encodeInst(w *wire.Writer, in isa.Inst) {
	w.Byte(byte(in.Op))
	w.Byte(byte(in.Dst))
	w.Byte(byte(in.Src1))
	w.Byte(byte(in.Src2))
	w.Varint(in.Imm)
}

func decodeInst(r *wire.Reader) isa.Inst {
	return isa.Inst{Op: isa.Op(r.Byte()), Dst: isa.Reg(r.Byte()), Src1: isa.Reg(r.Byte()), Src2: isa.Reg(r.Byte()), Imm: r.Varint()}
}

// Encode appends the predictor for a run snapshot.
func (p *Predictor) Encode(w *wire.Writer) {
	w.String(string(p.counters))
	w.Int(p.mask)
	w.Uvarint(p.Lookups)
	w.Uvarint(p.Mispredicts)
}

// Decode reads a predictor written by Encode into p.
func (p *Predictor) Decode(r *wire.Reader) {
	*p = Predictor{counters: []uint8(r.String("predictor counters", maxPredictor)),
		mask: r.Int(), Lookups: r.Uvarint(), Mispredicts: r.Uvarint()}
}
