package core

import (
	"fmt"
	"math/bits"

	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/isa"
)

// Tick simulates one target clock cycle: message delivery from the
// manager, then the pipeline stages in reverse order so results flow with
// realistic timing, then the local clock advances. A halted core still
// ticks (idling) so the slack time protocol stays live until the engine
// retires it.
func (c *Core) Tick() {
	c.processInQ()
	if c.halted {
		c.stats.IdleAfterEnd++
	} else {
		c.commit()
		c.completeExec()
		c.issue()
		c.dispatch()
		c.fetch()
	}
	c.now++
	c.stats.Cycles++
}

// processInQ consumes manager messages whose effect time has been reached,
// per the paper's InQ protocol (a core reads an entry out when its local
// time reaches the entry's timestamp).
func (c *Core) processInQ() {
	for {
		msg, ok := c.inQ.Peek()
		if !ok || msg.TS > c.now {
			return
		}
		c.inQ.Pop()
		switch msg.Kind {
		case event.MsgReply:
			c.applyReply(msg)
		case event.MsgInval:
			c.applySnoop(msg)
		}
	}
}

func (c *Core) applyReply(msg event.Msg) {
	if c.imshr.Lookup(msg.LineAddr) != nil {
		c.imshr.Release(msg.LineAddr)
		// Instruction lines are never dirty; victims are dropped silently.
		c.l1i.Insert(msg.LineAddr, msg.NewState)
		return
	}
	waiters := c.dmshr.Release(msg.LineAddr)
	victim := c.l1d.Insert(msg.LineAddr, msg.NewState)
	if victim.Valid && victim.Dirty {
		c.sendReq(coherence.BusWB, victim.LineAddr)
	}
	for _, seq := range waiters {
		e := c.bySeq(seq)
		if e == nil || e.state != stWaitMem {
			continue // squashed or already satisfied
		}
		if cache.LineAddr(e.addr) != msg.LineAddr {
			continue
		}
		if e.inst.Op == isa.Load {
			// Register values and memory data are fetched just before
			// execution (NetBurst-like), so the load reads the memory
			// image at completion time.
			e.result = c.mem.Read(e.addr)
			e.hasResult = true
		}
		c.markDone(e)
		e.doneAt = c.now
	}
}

func (c *Core) applySnoop(msg event.Msg) {
	if c.l1d.State(msg.LineAddr).Valid() {
		// Before yielding the line, complete a non-speculative store that
		// already obtained write permission on it: hardware performs the
		// pending store and then transfers the line. Without this, a
		// heavily-contended line livelocks — every core's ownership fill
		// is revoked by the next core's queued snoop before the store at
		// the head of the ROB can commit.
		if c.robLen() > 0 {
			e := c.entry(c.robHead)
			if e.inst.Op == isa.Store && e.state == stDone && !e.written &&
				e.addrValid && cache.LineAddr(e.addr) == msg.LineAddr &&
				c.l1d.State(msg.LineAddr).CanWrite() {
				c.mem.Write(e.addr, e.storeVal)
				e.written = true
			}
		}
		c.l1d.SetState(msg.LineAddr, msg.NewState)
	}
	if c.l1i.State(msg.LineAddr).Valid() && msg.NewState == coherence.Invalid {
		c.l1i.SetState(msg.LineAddr, coherence.Invalid)
	}
}

// commit retires up to CommitWidth instructions from the head of the ROB.
// Synchronization instructions execute here, non-speculatively.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robLen() > 0; n++ {
		e := c.entry(c.robHead)
		switch e.inst.Op.Class() {
		case isa.ClassSync:
			if !c.commitSync(e) {
				return
			}
		case isa.ClassHalt:
			c.halted = true
		case isa.ClassStore:
			if e.state != stDone {
				return
			}
			if !c.commitStore(e) {
				return
			}
		default:
			if e.state != stDone {
				return
			}
			if e.hasResult && writesDest(e.inst) {
				c.regs[e.inst.Dst] = e.result
			}
		}
		c.retireHead(e)
		if c.halted {
			return
		}
	}
}

//slacksim:hotpath
func (c *Core) retireHead(e *robEntry) {
	if c.rec != nil {
		c.recordRetire(e)
	}
	c.robHead++
	if c.mapTable[e.inst.Dst] == e.seq {
		c.mapTable[e.inst.Dst] = -1
	}
	if c.serializeSeq == e.seq {
		c.serializeSeq = -1
	}
	c.stats.Committed++
	switch e.inst.Op.Class() {
	case isa.ClassLoad:
		c.stats.Loads++
	case isa.ClassStore:
		c.clearBit(c.stores, e.seq)
		c.stats.Stores++
	case isa.ClassBranch:
		c.stats.Branches++
	}
}

// commitSync executes a lock or barrier at the head of the ROB. It returns
// false while the operation must keep the core waiting (the core spins in
// target time: its clock keeps advancing, no commit happens).
func (c *Core) commitSync(e *robEntry) bool {
	switch e.inst.Op {
	case isa.LockAcq:
		if e.state == stDone {
			return true
		}
		c.stats.LockWait++
		if c.now < e.nextLockTry {
			return false
		}
		addr := c.regs[e.inst.Src1] + uint64(e.inst.Imm)
		if c.sync.TryLock(addr, c.cfg.ID, c.now) {
			c.markDone(e)
			return true
		}
		c.stats.LockRetries++
		e.nextLockTry = c.now + c.cfg.LockRetryInterval
		return false
	case isa.LockRel:
		addr := c.regs[e.inst.Src1] + uint64(e.inst.Imm)
		c.sync.Unlock(addr, c.cfg.ID, c.now)
		return true
	case isa.Barrier:
		if !e.barrierArrived {
			e.barrierGen = c.sync.BarrierArrive(e.inst.Imm, c.cfg.ID, c.now)
			e.barrierArrived = true
		}
		if c.sync.BarrierPassed(e.inst.Imm, e.barrierGen, c.now) {
			return true
		}
		c.stats.BarrierWait++
		return false
	}
	panic(fmt.Sprintf("core %d: unknown sync op %v", c.cfg.ID, e.inst.Op))
}

// commitStore performs the architectural store: it needs write permission
// in the L1D (which a snoop may have stolen since the store executed); on
// a lost line it re-requests ownership and stalls commit.
func (c *Core) commitStore(e *robEntry) bool {
	if e.written {
		// The write was already performed when a snoop forced the line
		// away (see applySnoop); nothing left to do but retire.
		return true
	}
	line := cache.LineAddr(e.addr)
	st := c.l1d.State(line)
	if !st.CanWrite() {
		// A snoop stole the line between execution and commit: re-obtain
		// write permission. Merge into an outstanding miss on the line if
		// one exists (its reply wakes this store; a read-grade grant just
		// sends us around this loop once more); on a full MSHR file stay
		// retired-pending and retry next cycle.
		if entry, primary := c.dmshr.Allocate(line, true, e.seq, c.now); entry != nil {
			if primary {
				kind := coherence.RequestFor(st, true)
				if kind == coherence.BusNone {
					kind = coherence.BusRdX
				}
				c.sendReq(kind, line)
			}
			e.state = stWaitMem
		}
		return false
	}
	c.mem.Write(e.addr, e.storeVal)
	if st == coherence.Exclusive {
		c.l1d.SetState(line, coherence.Modified)
	}
	c.l1d.Probe(line, true) // touch LRU, count the write access
	return true
}

// completeExec marks issued instructions whose latency elapsed as done
// and resolves branches, flushing on mispredictions. It walks the issued
// set oldest first, so branches resolve, and train the predictor, in
// window order, and nothing younger than a mispredict completes.
func (c *Core) completeExec() {
	from, to := c.robHead, c.nextSeq
	for base := from &^ 63; base < to; base += 64 {
		for w := c.word(c.issued, base, from, to); w != 0; w &= w - 1 {
			seq := base + bits.TrailingZeros64(w)
			e := c.entry(seq)
			if e.doneAt > c.now {
				continue
			}
			c.clearBit(c.issued, seq)
			if c.complete(e) {
				return
			}
		}
	}
}

// complete moves an issued entry whose latency elapsed to stDone and
// resolves it if it is a branch. On a mispredict it squashes everything
// younger, redirects fetch and reports true.
func (c *Core) complete(e *robEntry) (flushed bool) {
	c.markDone(e)
	if !e.inst.Op.IsBranch() || e.resolved {
		return false
	}
	e.resolved = true
	c.pred.Update(e.pc, e.actualTaken)
	if e.actualTaken == e.predTaken {
		return false
	}
	c.pred.Mispredicts++
	c.stats.Mispredicts++
	c.flushAfter(e.seq)
	next := e.pc + 1
	if e.actualTaken {
		next = int(e.inst.Imm)
	}
	c.fetchPC = next
	c.fetchStallUntil = c.now + int64(c.cfg.MispredictPenalty)
	return true
}

// flushAfter squashes every ROB entry younger than seq keep and the
// entire fetch buffer, then rebuilds the map table from the surviving
// entries. nextSeq rewinds to keep+1 so window seqs stay contiguous.
// Reusing squashed seqs is safe: the only external holders of seqs are
// MSHR waiter lists, and a reused-seq entry waiting on the same line
// necessarily merged into the same outstanding MSHR entry, so a wakeup
// through the stale seq is a wakeup the entry was owed anyway (applyReply
// re-checks state and line).
func (c *Core) flushAfter(keep int) {
	c.stats.Flushes++
	for seq := keep + 1; seq < c.nextSeq; seq++ {
		if c.serializeSeq == seq {
			c.serializeSeq = -1
		}
		c.clearBit(c.ready, seq)
		c.clearBit(c.issued, seq)
		c.clearBit(c.stores, seq)
	}
	c.dropSubscribers(keep)
	c.nextSeq = keep + 1
	c.fetchBuf = c.fetchBuf[:0]
	for r := range c.mapTable {
		c.mapTable[r] = -1
	}
	for seq := c.robHead; seq < c.nextSeq; seq++ {
		if e := c.entry(seq); writesDest(e.inst) {
			c.mapTable[e.inst.Dst] = seq
		}
	}
}

// issue selects up to IssueWidth instructions from the ready set, oldest
// first, and starts their execution on the captured operand values,
// modeling per-pool functional-unit limits. An entry that cannot start
// this cycle (no free port or unit, an older store with an unknown
// address, a full MSHR file) stays ready and is tried again next cycle.
func (c *Core) issue() {
	slots := c.cfg.IssueWidth
	var free [isa.NumUnits]int
	free[isa.UnitALU] = slots
	free[isa.UnitMem] = c.cfg.MemPortsPerCycle
	free[isa.UnitFP] = c.cfg.FPopsPerCycle
	free[isa.UnitDiv] = c.cfg.DivsPerCycle
	from, to := c.robHead, c.nextSeq
	for base := from &^ 63; base < to; base += 64 {
		for w := c.word(c.ready, base, from, to); w != 0; w &= w - 1 {
			seq := base + bits.TrailingZeros64(w)
			e := c.entry(seq)
			info := e.inst.Op.Info()
			if info.Class == isa.ClassNop {
				// Trivially done, taking no slot.
				c.clearBit(c.ready, seq)
				c.markDone(e)
				e.doneAt = c.now
				continue
			}
			if free[info.Unit] == 0 || !c.tryIssue(e, info) {
				continue
			}
			c.clearBit(c.ready, seq)
			free[info.Unit]--
			if slots--; slots == 0 {
				return
			}
		}
	}
}

// tryIssue attempts to begin execution of ROB entry e, whose op has the
// op-table row info, on its captured operands.
func (c *Core) tryIssue(e *robEntry, info isa.Info) bool {
	a, b := e.src[0], e.src[1]
	switch info.Class {
	case isa.ClassBranch:
		e.actualTaken = isa.BranchTaken(e.inst, a, b)
	case isa.ClassLoad:
		addr := a + uint64(e.inst.Imm)
		fwd, ok := c.disambiguate(e.seq, addr)
		if !ok {
			return false
		}
		return c.issueLoad(e, addr, fwd)
	case isa.ClassStore:
		e.addr = a + uint64(e.inst.Imm)
		e.addrValid = true
		e.storeVal = b
		return c.issueStore(e, info)
	default:
		e.result = isa.ALUResult(e.inst, a, b)
		e.hasResult = true
	}
	c.execute(e, int64(info.Latency))
	return true
}

// execute starts e on a functional unit: it completes lat cycles from now.
//
//slacksim:hotpath
func (c *Core) execute(e *robEntry, lat int64) {
	e.state = stIssued
	e.doneAt = c.now + lat
	c.setBit(c.issued, e.seq)
}

// disambiguate checks a load at seq against every older store: each must
// have a known address (ok is false until it does), and the youngest one
// to the same word forwards its value (fwd, nil when none does). It walks
// only the store set.
//
//slacksim:hotpath
func (c *Core) disambiguate(seq int, addr uint64) (fwd *robEntry, ok bool) {
	from := c.robHead
	for base := from &^ 63; base < seq; base += 64 {
		for w := c.word(c.stores, base, from, seq); w != 0; w &= w - 1 {
			s := c.entry(base + bits.TrailingZeros64(w))
			if !s.addrValid {
				return nil, false // conservative: wait for the address
			}
			if s.addr == addr {
				fwd = s
			}
		}
	}
	return fwd, true
}

// issueLoad executes a disambiguated load at addr: store-to-load
// forwarding from fwd when it is set, else an L1D access with lock-up-free
// misses.
func (c *Core) issueLoad(e *robEntry, addr uint64, fwd *robEntry) bool {
	e.addr = addr
	e.addrValid = true
	if fwd != nil {
		e.result = fwd.storeVal
		e.hasResult = true
		c.execute(e, 1) // forwarding latency
		return true
	}
	line := cache.LineAddr(addr)
	if c.l1d.Probe(line, false) {
		e.result = c.mem.Read(addr)
		e.hasResult = true
		c.execute(e, int64(c.l1d.Latency()))
		return true
	}
	entry, primary := c.dmshr.Allocate(line, false, e.seq, c.now)
	if entry == nil {
		return false // MSHR file full; retry next cycle
	}
	if primary {
		c.sendReq(coherence.BusRd, line)
	}
	e.state = stWaitMem
	return true
}

// issueStore obtains write permission for a store whose address and
// value are computed; the architectural write happens at commit.
func (c *Core) issueStore(e *robEntry, info isa.Info) bool {
	line := cache.LineAddr(e.addr)
	st := c.l1d.State(line)
	if st.CanWrite() {
		c.execute(e, int64(info.Latency))
		return true
	}
	entry, primary := c.dmshr.Allocate(line, true, e.seq, c.now)
	if entry == nil {
		e.addrValid = false // retry whole issue next cycle
		return false
	}
	if primary {
		kind := coherence.RequestFor(st, true)
		if kind == coherence.BusNone {
			kind = coherence.BusRdX
		}
		c.sendReq(kind, line)
	}
	e.state = stWaitMem
	return true
}

// dispatch moves instructions from the fetch buffer into the ROB,
// recording operand producers (renaming). Sync and halt instructions
// serialize: nothing younger dispatches until they commit.
func (c *Core) dispatch() {
	k := 0
	for n := 0; n < c.cfg.IssueWidth && k < len(c.fetchBuf) && c.robLen() < c.cfg.ROBSize; n++ {
		if c.serializeSeq >= 0 {
			break
		}
		f := c.fetchBuf[k]
		k++
		if c.robLen() == len(c.rob) {
			c.growROB()
		}
		seq := c.nextSeq
		c.nextSeq++
		e := c.entry(seq)
		info := f.inst.Op.Info()
		// Clear the slot in place and fill in what dispatch knows; the
		// rest starts at zero and subscribe sets the wakeup state.
		*e = robEntry{}
		e.seq, e.pc, e.inst, e.state, e.predTaken = seq, f.pc, f.inst, stDispatched, f.predTaken
		e.srcProd = [2]int{-1, -1}
		if info.Reads[0] {
			e.srcProd[0] = c.mapTable[f.inst.Src1]
		}
		if info.Reads[1] {
			e.srcProd[1] = c.mapTable[f.inst.Src2]
		}
		c.subscribe(e)
		if info.Class == isa.ClassStore {
			c.setBit(c.stores, seq)
		}
		if writesDest(f.inst) {
			c.mapTable[f.inst.Dst] = seq
		}
		if info.Serial {
			c.serializeSeq = seq
		}
	}
	if k > 0 {
		c.fetchBuf = c.fetchBuf[:copy(c.fetchBuf, c.fetchBuf[k:])]
	}
}

// fetch brings up to FetchWidth instructions into the fetch buffer,
// predicting branch directions; it stalls on I-cache misses and after
// mispredict redirects.
func (c *Core) fetch() {
	if c.now < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchBuf) < c.cfg.FetchBufSize; n++ {
		pc := c.fetchPC
		line := c.codeLine(pc)
		if c.imshr.Lookup(line) != nil {
			return // miss outstanding
		}
		if !c.l1i.Probe(line, false) {
			if _, primary := c.imshr.Allocate(line, false, -1, c.now); primary {
				c.sendReq(coherence.BusIFetch, line)
			}
			return
		}
		in := c.prog.At(pc)
		info := in.Op.Info()
		next, taken := pc+1, false
		if info.Class == isa.ClassBranch {
			if taken = in.Op == isa.Jmp || c.pred.Predict(pc); taken {
				next = int(in.Imm)
			}
		}
		// Filled in place: a literal built on the stack and copied in is
		// reloaded in wide moves across the narrow stores that wrote it,
		// which defeats store forwarding.
		c.fetchBuf = append(c.fetchBuf, fetched{})
		f := &c.fetchBuf[len(c.fetchBuf)-1]
		f.pc, f.inst, f.predTaken = pc, in, taken
		c.fetchPC = next
		if info.Serial {
			return // do not fetch past serializing instructions this cycle
		}
		if taken {
			return // taken branch ends the fetch group
		}
	}
}
