package core

import (
	"fmt"
	"math"

	"slacksim/internal/cache"
	"slacksim/internal/isa"
)

// Snapshot is a deep copy of a core's architectural and micro-architectural
// state, the core's contribution to a global simulation checkpoint. The
// paper checkpoints whole simulator processes with fork(); inside a single
// Go process the equivalent is an explicit deep copy, which exposes the
// same cost structure (cost grows with live state and checkpoint
// frequency). The shared event queues and memory image are checkpointed by
// the engine, not here.
type Snapshot struct {
	now      int64
	regs     [isa.NumRegs]uint64
	mapTable [isa.NumRegs]int
	rob      []robEntry
	fetchBuf []fetched

	fetchPC         int
	fetchStallUntil int64
	serializeSeq    int
	nextSeq         int
	halted          bool
	reqID           uint64
	stats           Stats

	l1i, l1d *cache.Cache
	imshr    *cache.MSHRFile
	dmshr    *cache.MSHRFile
	pred     *Predictor
}

// Snapshot captures the core's complete state.
func (c *Core) Snapshot() *Snapshot {
	s := &Snapshot{
		now:             c.now,
		regs:            c.regs,
		mapTable:        c.mapTable,
		fetchPC:         c.fetchPC,
		fetchStallUntil: c.fetchStallUntil,
		serializeSeq:    c.serializeSeq,
		nextSeq:         c.nextSeq,
		halted:          c.halted,
		reqID:           c.reqID,
		stats:           c.stats,
		l1i:             c.l1i.Snapshot(),
		l1d:             c.l1d.Snapshot(),
		imshr:           c.imshr.Snapshot(),
		dmshr:           c.dmshr.Snapshot(),
		pred:            c.pred.Snapshot(),
	}
	s.rob = c.appendWindow(make([]robEntry, 0, c.robLen()))
	s.fetchBuf = append([]fetched(nil), c.fetchBuf...)
	return s
}

// SnapshotInto captures the core's complete state into s, reusing s's
// ROB/fetch backings and component graphs — the pooled-snapshot-graph
// variant of Snapshot. A zero Snapshot is populated on first use (pool
// warm-up); after that nothing is reallocated.
func (c *Core) SnapshotInto(s *Snapshot) {
	s.now = c.now
	s.regs = c.regs
	s.mapTable = c.mapTable
	s.fetchPC = c.fetchPC
	s.fetchStallUntil = c.fetchStallUntil
	s.serializeSeq = c.serializeSeq
	s.nextSeq = c.nextSeq
	s.halted = c.halted
	s.reqID = c.reqID
	s.stats = c.stats
	s.rob = c.appendWindow(s.rob[:0])
	s.fetchBuf = append(s.fetchBuf[:0], c.fetchBuf...)
	if s.l1i == nil {
		s.l1i, s.l1d = c.l1i.Snapshot(), c.l1d.Snapshot()         //lint:allow hotpathalloc -- one-time pool warm-up; later boundaries reuse the caches in place
		s.imshr, s.dmshr = c.imshr.Snapshot(), c.dmshr.Snapshot() //lint:allow hotpathalloc -- one-time pool warm-up; see above
		s.pred = c.pred.Snapshot()                                //lint:allow hotpathalloc -- one-time pool warm-up; see above
		return
	}
	c.l1i.SnapshotInto(s.l1i)
	c.l1d.SnapshotInto(s.l1d)
	c.imshr.SnapshotInto(s.imshr)
	c.dmshr.SnapshotInto(s.dmshr)
	c.pred.SnapshotInto(s.pred)
}

// appendWindow appends the live ROB window, oldest first, to dst.
//
//slacksim:hotpath
func (c *Core) appendWindow(dst []robEntry) []robEntry {
	for seq := c.robHead; seq < c.nextSeq; seq++ {
		dst = append(dst, *c.entry(seq))
	}
	return dst
}

// Restore overwrites the core's state from a snapshot taken on the same
// core. It places the ROB window in the ring (which a restore grows only
// past the ring's high-water size) and rebuilds the wakeup state, which a
// snapshot's wire form does not carry.
//
//slacksim:hotpath
func (c *Core) Restore(s *Snapshot) {
	for len(c.rob) < len(s.rob) {
		c.growROB()
	}
	c.now = s.now
	c.regs = s.regs
	c.mapTable = s.mapTable
	c.fetchPC = s.fetchPC
	c.fetchStallUntil = s.fetchStallUntil
	c.serializeSeq = s.serializeSeq
	c.nextSeq = s.nextSeq
	c.halted = s.halted
	c.reqID = s.reqID
	c.stats = s.stats

	c.robHead = s.nextSeq - len(s.rob)
	for i := range s.rob {
		*c.entry(c.robHead + i) = s.rob[i]
	}
	c.rebuildWakeups()
	c.fetchBuf = append(c.fetchBuf[:0], s.fetchBuf...)
	c.l1i.Restore(s.l1i)
	c.l1d.Restore(s.l1d)
	c.imshr.Restore(s.imshr)
	c.dmshr.Restore(s.dmshr)
	c.pred.Restore(s.pred)
}

// maxSeq bounds snapshot seqs so that a wake-list link, seq<<1|operand,
// cannot overflow.
const maxSeq = math.MaxInt >> 1

// CheckSnapshot reports why s cannot be restored into c, or nil. Restore
// trusts its snapshot, so one decoded from bytes that crossed a socket or
// a disk must pass this first. The checks cover what the ring, the wake
// lists and the register file index by: the ROB holds at most ROBSize
// entries, their seqs are contiguous and end at nextSeq-1, each operand
// producer is -1 or older than its consumer (a committed producer reads
// the register file), mapTable and serializeSeq name -1 or an in-window
// seq, states and register numbers are in range, and the cache, MSHR and
// predictor state has this core's shape.
func (c *Core) CheckSnapshot(s *Snapshot) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("core %d snapshot: "+format, append([]any{c.cfg.ID}, args...)...)
	}
	switch {
	case s == nil || s.l1i == nil || s.l1d == nil || s.imshr == nil || s.dmshr == nil || s.pred == nil:
		return bad("missing cache, MSHR or predictor state")
	case s.l1i.Config() != c.l1i.Config() || s.l1d.Config() != c.l1d.Config():
		return bad("L1 geometry differs from the core's")
	case s.imshr.Cap() != c.imshr.Cap() || s.dmshr.Cap() != c.dmshr.Cap() ||
		s.imshr.Len() > s.imshr.Cap() || s.dmshr.Len() > s.dmshr.Cap():
		return bad("MSHR files differ from the core's")
	case len(s.pred.counters) != len(c.pred.counters) || s.pred.mask != c.pred.mask:
		return bad("predictor table differs from the core's")
	case len(s.rob) > c.cfg.ROBSize:
		return bad("ROB holds %d entries, ROBSize is %d", len(s.rob), c.cfg.ROBSize)
	case len(s.fetchBuf) > c.cfg.FetchBufSize:
		return bad("fetch buffer holds %d entries, FetchBufSize is %d", len(s.fetchBuf), c.cfg.FetchBufSize)
	case s.nextSeq < len(s.rob) || s.nextSeq > maxSeq:
		return bad("nextSeq %d cannot end a window of %d entries", s.nextSeq, len(s.rob))
	}
	head := s.nextSeq - len(s.rob)
	inWindow := func(seq int) bool { return seq == -1 || seq >= head && seq < s.nextSeq }
	for i := range s.rob {
		e := &s.rob[i]
		if e.seq != head+i {
			return bad("ROB entry %d has seq %d, want %d (seqs contiguous, ending at nextSeq-1 = %d)",
				i, e.seq, head+i, s.nextSeq-1)
		}
		if e.state > stDone || !regsInRange(e.inst) {
			return bad("ROB entry %d (seq %d) has state %d or a register out of range", i, e.seq, e.state)
		}
		for _, p := range e.srcProd {
			if p < -1 || p >= e.seq {
				return bad("ROB entry seq %d names producer %d, which is not older", e.seq, p)
			}
		}
	}
	for r, p := range s.mapTable {
		if !inWindow(p) {
			return bad("mapTable[r%d] names seq %d outside the window [%d, %d)", r, p, head, s.nextSeq)
		}
	}
	if !inWindow(s.serializeSeq) {
		return bad("serializeSeq %d is outside the window [%d, %d)", s.serializeSeq, head, s.nextSeq)
	}
	for i, f := range s.fetchBuf {
		if !regsInRange(f.inst) {
			return bad("fetch buffer entry %d has a register out of range", i)
		}
	}
	return nil
}

func regsInRange(in isa.Inst) bool {
	return in.Dst < isa.NumRegs && in.Src1 < isa.NumRegs && in.Src2 < isa.NumRegs
}

// StateEqual reports whether two cores (same configuration, typically in
// different machines driven by the same run) hold identical architectural
// and micro-architectural state. Used by checkpoint-equivalence tests.
func (c *Core) StateEqual(o *Core) bool {
	if c.now != o.now || c.regs != o.regs || c.mapTable != o.mapTable ||
		c.fetchPC != o.fetchPC || c.fetchStallUntil != o.fetchStallUntil ||
		c.serializeSeq != o.serializeSeq || c.nextSeq != o.nextSeq ||
		c.halted != o.halted || c.reqID != o.reqID || c.stats != o.stats ||
		c.robLen() != o.robLen() || len(c.fetchBuf) != len(o.fetchBuf) {
		return false
	}
	for i := 0; i < c.robLen(); i++ {
		if *c.entry(c.robHead + i) != *o.entry(o.robHead + i) {
			return false
		}
	}
	for i := range c.fetchBuf {
		if c.fetchBuf[i] != o.fetchBuf[i] {
			return false
		}
	}
	return c.l1i.Equal(o.l1i) && c.l1d.Equal(o.l1d) &&
		c.imshr.Equal(o.imshr) && c.dmshr.Equal(o.dmshr) &&
		c.pred.Equal(o.pred)
}

// StateWords estimates the snapshot's size in 64-bit words, for the
// checkpoint cost model.
func (s *Snapshot) StateWords() int {
	return len(s.rob)*16 + len(s.fetchBuf)*3 +
		s.l1i.StateWords() + s.l1d.StateWords() +
		2*isa.NumRegs + 64
}
