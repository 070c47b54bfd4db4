package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/wire"
)

// The reference stages below are the pipeline before its bitsets and
// captured operands existed: each scans the whole window (or its older
// part) oldest first, and issue reads each operand from its producer or
// the register file. They are the oracle the bitset walks and the
// operand capture must match decision for decision. They clear the bits
// of what they issue and complete, so both cores keep comparable derived
// state, but they never read a bitset or a captured operand.

// issueScan is the issue stage before the ready set: it tries every
// dispatched entry, disambiguating loads with disambiguateScan.
// Functional-unit limits are counted per class, as they were before the
// op table named a pool per op.
func (c *Core) issueScan() {
	slots := c.cfg.IssueWidth
	memPorts := c.cfg.MemPortsPerCycle
	fpOps := c.cfg.FPopsPerCycle
	divs := c.cfg.DivsPerCycle
	for seq := c.robHead; seq < c.nextSeq && slots > 0; seq++ {
		e := c.entry(seq)
		if e.state != stDispatched {
			continue
		}
		cls := e.inst.Op.Class()
		switch cls {
		case isa.ClassSync, isa.ClassHalt, isa.ClassNop:
			if cls == isa.ClassNop {
				c.clearBit(c.ready, seq)
				c.markDone(e)
				e.doneAt = c.now
			}
			continue
		case isa.ClassLoad, isa.ClassStore:
			if memPorts == 0 {
				continue
			}
		case isa.ClassFPAdd, isa.ClassFPMul:
			if fpOps == 0 {
				continue
			}
		case isa.ClassIntDiv, isa.ClassFPDiv:
			if divs == 0 {
				continue
			}
		}
		if !c.tryIssueScan(e, e.inst.Op.Info()) {
			continue
		}
		c.clearBit(c.ready, seq)
		slots--
		switch cls {
		case isa.ClassLoad, isa.ClassStore:
			memPorts--
		case isa.ClassFPAdd, isa.ClassFPMul:
			fpOps--
		case isa.ClassIntDiv, isa.ClassFPDiv:
			divs--
		}
	}
}

// tryIssueScan is tryIssue on operands read by operands, with a load's
// disambiguation done by disambiguateScan. It overwrites e's captured
// operands with what it read, so a capture that went wrong shows as a
// difference from the core that issued on it.
func (c *Core) tryIssueScan(e *robEntry, info isa.Info) bool {
	a, b, ok := c.operands(e)
	if !ok {
		return false
	}
	e.src = [2]uint64{a, b}
	if info.Class != isa.ClassLoad {
		return c.tryIssue(e, info)
	}
	addr := a + uint64(e.inst.Imm)
	fwd, ok := c.disambiguateScan(e.seq, addr)
	if !ok {
		return false
	}
	return c.issueLoad(e, addr, fwd)
}

// operands reads the source values e consumes; ok is false while one of
// them is still being produced.
func (c *Core) operands(e *robEntry) (a, b uint64, ok bool) {
	reads := e.inst.Op.Info().Reads
	if reads[0] {
		if a, ok = c.operand(e, 0, e.inst.Src1); !ok {
			return 0, 0, false
		}
	}
	if reads[1] {
		if b, ok = c.operand(e, 1, e.inst.Src2); !ok {
			return 0, 0, false
		}
	}
	return a, b, true
}

// operand resolves source i of e: the producer's result if it is still in
// flight and done, the architectural register otherwise.
func (c *Core) operand(e *robEntry, i int, reg isa.Reg) (val uint64, ready bool) {
	p := e.srcProd[i]
	if p < 0 {
		return c.regs[reg], true
	}
	pe := c.bySeq(p)
	if pe == nil {
		// Producer committed after e dispatched; its value reached the
		// architectural register file.
		return c.regs[reg], true
	}
	if pe.state == stDone && pe.hasResult {
		return pe.result, true
	}
	return 0, false
}

// disambiguateScan is disambiguate before the store set: it visits every
// older entry and skips the ones that are not stores.
func (c *Core) disambiguateScan(seq int, addr uint64) (fwd *robEntry, ok bool) {
	for older := c.robHead; older < seq; older++ {
		s := c.entry(older)
		if s.inst.Op != isa.Store {
			continue
		}
		if !s.addrValid {
			return nil, false
		}
		if s.addr == addr {
			fwd = s
		}
	}
	return fwd, true
}

// completeExecScan is completeExec before the issued set: it visits every
// window entry and completes the issued ones whose latency elapsed.
func (c *Core) completeExecScan() {
	for seq := c.robHead; seq < c.nextSeq; seq++ {
		e := c.entry(seq)
		if e.state != stIssued || e.doneAt > c.now {
			continue
		}
		c.clearBit(c.issued, seq)
		if c.complete(e) {
			return
		}
	}
}

// tickScan is Tick with the reference issue and completion stages.
func (c *Core) tickScan() {
	c.processInQ()
	if c.halted {
		c.stats.IdleAfterEnd++
	} else {
		c.commit()
		c.completeExecScan()
		c.issueScan()
		c.dispatch()
		c.fetch()
	}
	c.now++
	c.stats.Cycles++
}

// noisyBus is a randomized loopback memory system: every request gets a
// reply after a random latency, and now and then a snoop takes a random
// data line away. Two buses with the same seed serving the same request
// stream behave identically.
type noisyBus struct {
	core *Core
	mem  *mem.Memory
	sync *syncctl.Controller
	outQ *event.Queue[event.Request]
	inQ  *event.Queue[event.Msg]
	rng  *rand.Rand
}

func newNoisyBus(t *testing.T, cfg Config, prog *isa.Program, seed int64) *noisyBus {
	t.Helper()
	b := &noisyBus{
		mem:  mem.New(),
		sync: syncctl.New(1),
		outQ: event.NewQueue[event.Request](),
		inQ:  event.NewQueue[event.Msg](),
		rng:  rand.New(rand.NewSource(seed)),
	}
	c, err := New(cfg, prog, b.mem, b.sync, b.outQ, b.inQ)
	if err != nil {
		t.Fatal(err)
	}
	b.core = c
	return b
}

func (b *noisyBus) pump() {
	for {
		req, ok := b.outQ.Pop()
		if !ok {
			break
		}
		if req.Kind == coherence.BusWB {
			continue
		}
		lat := 1 + b.rng.Int63n(24)
		if b.rng.Intn(8) == 0 {
			lat += 40 + b.rng.Int63n(60) // a slow miss lets the window fill
		}
		b.inQ.Push(event.Msg{
			Kind: event.MsgReply, ReqID: req.ID, LineAddr: req.LineAddr,
			NewState: coherence.GrantState(req.Kind, false), TS: req.TS + lat,
		})
	}
	if b.rng.Intn(64) == 0 {
		// genProgram's data region is 0x8000..0x8200: eight lines.
		b.inQ.Push(event.Msg{
			Kind: event.MsgInval, LineAddr: cache.LineAddr(0x8000) + uint64(b.rng.Intn(8)),
			NewState: coherence.Invalid, TS: b.core.Now(),
		})
	}
}

// busState is everything a rollback restores besides the core.
type busState struct {
	mem  *mem.Memory
	sync *syncctl.Controller
	inQ  []event.Msg
	outQ []event.Request
}

func (b *noisyBus) save() busState {
	return busState{copyMem(b.mem), copySync(b.sync), b.inQ.Snapshot(), b.outQ.Snapshot()}
}

func (b *noisyBus) load(s busState) {
	b.mem.Restore(s.mem)
	b.sync.Restore(s.sync)
	b.inQ.Restore(s.inQ)
	b.outQ.Restore(s.outQ)
}

// viaWire round-trips a snapshot through its wire form, which carries no
// wakeup state.
func viaWire(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	w := new(wire.Writer)
	s.Encode(w)
	out, r := new(Snapshot), wire.NewReader(w.Bytes())
	if out.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	return out
}

// wakeState is a core's derived state: the ready, issued and stores
// bitsets and every window entry's pending count, links and captured
// operands.
func wakeState(c *Core) string {
	s := fmt.Sprintf("ready=%x issued=%x stores=%x", c.ready, c.issued, c.stores)
	for seq := c.robHead; seq < c.nextSeq; seq++ {
		e := c.entry(seq)
		s += fmt.Sprintf(" %d:%d/%d/%v/%x", seq, e.pending, e.wakeHead, e.wakeNext, e.src)
	}
	return s
}

// checkWakeState fails unless c's incrementally maintained derived state
// is exactly what a rebuild from the window computes.
func checkWakeState(t *testing.T, c *Core, where string) {
	t.Helper()
	before := wakeState(c)
	c.rebuildWakeups()
	if after := wakeState(c); after != before {
		t.Fatalf("%s: derived state drifted from a rebuild\n have %s\n want %s", where, before, after)
	}
}

func robDump(c *Core) string {
	s := ""
	for seq := c.robHead; seq < c.nextSeq; seq++ {
		e := c.entry(seq)
		s += fmt.Sprintf("  %d %v state=%d src=%v done@%d\n", seq, e.inst, e.state, e.srcProd, e.doneAt)
	}
	return s
}

// streamProgram walks a load stream over fresh lines with runs of
// independent ALU work between the loads: behind a slow miss at the head
// the window fills, which is what grows a large ROB's ring.
func streamProgram(rng *rand.Rand) *isa.Program {
	b := isa.NewBuilder("stream")
	b.Li(3, 1)
	b.Li(11, 0x10000)
	b.Loop(13, int64(20+rng.Intn(20)), func() {
		b.Load(4, 11, 0)
		b.OpImm(isa.Addi, 11, 11, 64)
		for k := 0; k < 12; k++ {
			b.Op3(isa.Add, isa.Reg(5+k%6), 3, 3)
		}
		b.Op3(isa.Add, 3, 3, 4)
	})
	b.Halt()
	return b.MustProgram()
}

// TestIssueMatchesScanOracle drives random programs through two cores in
// lockstep, one running the bitset-driven stages (issue from the ready
// set, completion from the issued set, disambiguation over the store set)
// and one the old whole-window scans, against identical randomized memory
// systems, and requires identical state after every cycle — so every
// issue decision, retry, forwarding choice, completion and predictor
// update is the same. The runs cover mispredict flushes, MSHR-full retries
// (one to three data MSHRs), snoops that send a done store back to memory,
// a mid-run rollback of both cores (the bitset core restored from the wire
// form, which carries no derived state), and ring growth, at ROB sizes 8,
// 64 and 128. After every cycle the bitset core's derived state (the three
// bitsets and the wake lists) must also equal a rebuild from its window.
func TestIssueMatchesScanOracle(t *testing.T) {
	const programs = 40
	var flushes, mshrFull, rollbacks, grown uint64
	for _, robSize := range []int{8, 64, 128} {
		for seed := int64(0); seed < programs; seed++ {
			rng := rand.New(rand.NewSource(seed))
			prog := genProgram(rng)
			if seed%4 == 3 {
				prog = streamProgram(rng)
			}
			cfg := DefaultConfig(0)
			cfg.ROBSize = robSize
			cfg.DataMSHRs = 1 + rng.Intn(3)
			fast := newNoisyBus(t, cfg, prog, seed)
			scan := newNoisyBus(t, cfg, prog, seed)
			saveAt, restoreAt := 20+rng.Intn(200), -1
			var fastSnap, scanSnap *Snapshot
			var fastBus, scanBus busState
			for cycle := 0; !fast.core.Halted() || !scan.core.Halted(); cycle++ {
				if cycle > 300000 {
					t.Fatalf("rob %d seed %d: no halt in %d cycles", robSize, seed, cycle)
				}
				fast.core.Tick()
				scan.core.tickScan()
				if !fast.core.StateEqual(scan.core) {
					t.Fatalf("rob %d seed %d cycle %d: ready-set issue diverged from the scan\nready set:\n%sscan:\n%s",
						robSize, seed, cycle, robDump(fast.core), robDump(scan.core))
				}
				checkWakeState(t, fast.core, fmt.Sprintf("rob %d seed %d cycle %d", robSize, seed, cycle))
				fast.pump()
				scan.pump()
				switch cycle {
				case saveAt:
					fastSnap, scanSnap = viaWire(t, fast.core.Snapshot()), scan.core.Snapshot()
					fastBus, scanBus = fast.save(), scan.save()
					restoreAt = cycle + 1 + rng.Intn(150)
				case restoreAt:
					fast.core.Restore(fastSnap)
					scan.core.Restore(scanSnap)
					fast.load(fastBus)
					scan.load(scanBus)
					checkWakeState(t, fast.core, fmt.Sprintf("rob %d seed %d after restore", robSize, seed))
					rollbacks++
				}
			}
			flushes += fast.core.stats.Flushes
			mshrFull += fast.core.dmshr.Full
			if len(fast.core.rob) > minROBRing {
				grown++
			}
		}
	}
	if flushes == 0 || mshrFull == 0 || rollbacks == 0 || grown == 0 {
		t.Fatalf("coverage: %d flushes, %d MSHR-full retries, %d rollbacks, %d grown rings; want all nonzero",
			flushes, mshrFull, rollbacks, grown)
	}
	t.Logf("%d flushes, %d MSHR-full retries, %d rollbacks, %d grown rings", flushes, mshrFull, rollbacks, grown)
}

// TestWordWalkMatchesBitScan checks the word-at-a-time walk the stages
// use against a scan of one bit per seq, on random bitsets of rings of
// 64, 128 and 512 slots, over random ranges that start and end anywhere
// in a word and wrap around the ring's end.
func TestWordWalkMatchesBitScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 128, 512} {
		c := &Core{rob: make([]robEntry, n)}
		set := make([]uint64, n/64)
		for trial := 0; trial < 2000; trial++ {
			for i := range set {
				set[i] = rng.Uint64() & rng.Uint64()
			}
			from := rng.Intn(1 << 20)
			to := from + rng.Intn(n+1)
			var walked, scanned []int
			for base := from &^ 63; base < to; base += 64 {
				for w := c.word(set, base, from, to); w != 0; w &= w - 1 {
					walked = append(walked, base+bits.TrailingZeros64(w))
				}
			}
			for seq := from; seq < to; seq++ {
				if slot := seq & (n - 1); set[slot>>6]&(1<<(slot&63)) != 0 {
					scanned = append(scanned, seq)
				}
			}
			if fmt.Sprint(walked) != fmt.Sprint(scanned) {
				t.Fatalf("ring %d, seqs [%d, %d): walk visits %v, scan %v", n, from, to, walked, scanned)
			}
		}
	}
}
