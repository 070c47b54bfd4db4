package core

import "slacksim/internal/isa"

// entryState tracks an in-flight instruction through the back end.
type entryState uint8

const (
	stDispatched entryState = iota // in ROB, not yet issued
	stIssued                       // executing; done at doneAt
	stWaitMem                      // waiting for a memory-system reply
	stDone                         // result ready; eligible to commit
)

// robEntry is one in-flight instruction. Its one-byte fields sit
// together, where they pack into two words instead of padding one each.
type robEntry struct {
	seq  int
	pc   int
	inst isa.Inst

	state     entryState
	hasResult bool

	// Branch bookkeeping.
	predTaken   bool
	actualTaken bool
	resolved    bool

	// Memory bookkeeping: see addr and storeVal below. written marks a
	// store whose architectural write was performed early because a snoop
	// took the line (see applySnoop).
	addrValid bool
	written   bool

	// Synchronization bookkeeping: see barrierGen and nextLockTry below.
	barrierArrived bool

	// pending is wakeup state: see wakeHead below.
	pending uint8

	// srcProd holds the ROB seq of each source operand's producer, or -1
	// when the value comes from the architectural register file.
	srcProd [2]int

	doneAt int64
	result uint64

	addr     uint64
	storeVal uint64

	barrierGen  uint64
	nextLockTry int64

	// Wakeup state, derived from the fields above and rebuilt by Restore
	// (the wire format does not carry it). pending counts the in-window
	// producers of this entry's operands that are not done yet. Wake lists
	// are intrusive: wakeHead names the youngest consumer operand
	// subscribed to this entry, as a link seq<<1|operand, and that
	// consumer's wakeNext[operand] names the next-older one; -1 ends a
	// list. src holds the value of each operand the op reads, captured
	// from the register file or a done producer when the entry
	// subscribes, or from the producer when it wakes the entry; an
	// operand still pending, and one the op does not read, holds zero.
	wakeHead int
	wakeNext [2]int
	src      [2]uint64
}

// noLink ends a wake list.
const noLink = -1

// minROBRing is the ring's initial length: one word of the ready bitset.
// Ring lengths are powers of two and multiples of 64, so slot = seq & mask
// and every bitset word covers 64 consecutive slots.
const minROBRing = 64

// The reorder buffer is a ring of entry values: the entry with sequence
// number seq lives at slot seq & (len(rob)-1). Window seqs are contiguous
// — dispatch takes nextSeq++, commit advances robHead, a squash rewinds
// nextSeq — so the live window is [robHead, nextSeq) and seq lookup is a
// bounds check and a mask. The ring starts at minROBRing slots and doubles
// while the window would overflow it, up to the first power of two that
// holds ROBSize entries; after that dispatch, commit and squash never
// allocate.
//
// The issue stage walks only the ready set, one bit per slot in ready: an
// entry's bit is set while it is dispatched, is executed by the issue
// stage (not a sync op or halt) and has no unfinished in-window producer.
// Dispatch subscribes each entry to its unfinished producers; markDone,
// the one transition to stDone, wakes the subscribers. An entry outside
// the ready set still waits for an operand, and an entry inside it is
// retried every cycle until it issues, so walking the set oldest first
// selects exactly what a scan of the whole window selects. An entry in
// the set has every operand it reads captured in src, so issue reads no
// producer and no register.
//
// Two more bitsets, also one bit per slot, let the other per-cycle walks
// skip what they would only pass over. A slot's issued bit is set exactly
// while it holds a window entry in stIssued (execute sets it, completeExec
// clears it when the entry completes, a squash clears it); its stores bit
// is set exactly while it holds a window store (dispatch sets it, commit
// and a squash clear it). completeExec walks issued and a load's
// disambiguation walks stores, both oldest first, so each visits the
// entries a window scan would act on, in the same order. Outside the
// window every bit is clear.

// robLen returns the number of in-flight ROB entries.
//
//slacksim:hotpath
func (c *Core) robLen() int { return c.nextSeq - c.robHead }

// entry returns the ring slot of seq, which must be in the window.
//
//slacksim:hotpath
func (c *Core) entry(seq int) *robEntry { return &c.rob[seq&(len(c.rob)-1)] }

// bySeq returns the in-flight entry with the given seq, or nil when that
// seq has committed, been squashed, or never dispatched.
//
//slacksim:hotpath
func (c *Core) bySeq(seq int) *robEntry {
	if seq < c.robHead || seq >= c.nextSeq {
		return nil
	}
	return c.entry(seq)
}

// growROB doubles the ring and its bitsets, moving the live window to its
// slots under the new mask.
func (c *Core) growROB() {
	old, oldSets := c.rob, [3][]uint64{c.ready, c.issued, c.stores}
	n := max(2*len(old), minROBRing)
	var sets []uint64
	c.rob, sets = make([]robEntry, n), make([]uint64, 3*n/64) //lint:allow hotpathalloc -- ring warm-up: doubles at most log2(ROBSize/64) times per core, then is reused
	w := n / 64
	c.ready, c.issued, c.stores = sets[:w:w], sets[w:2*w:2*w], sets[2*w:]
	newSets := [3][]uint64{c.ready, c.issued, c.stores}
	for seq := c.robHead; seq < c.nextSeq && len(old) > 0; seq++ {
		slot := seq & (len(old) - 1)
		*c.entry(seq) = old[slot]
		for i, set := range oldSets {
			if set[slot>>6]&(1<<(slot&63)) != 0 {
				c.setBit(newSets[i], seq)
			}
		}
	}
}

// setBit sets seq's slot in one of the ring's bitsets.
//
//slacksim:hotpath
func (c *Core) setBit(set []uint64, seq int) {
	slot := seq & (len(c.rob) - 1)
	set[slot>>6] |= 1 << (slot & 63)
}

// clearBit clears seq's slot in one of the ring's bitsets.
//
//slacksim:hotpath
func (c *Core) clearBit(set []uint64, seq int) {
	slot := seq & (len(c.rob) - 1)
	set[slot>>6] &^= 1 << (slot & 63)
}

// word returns the 64 bits of set that cover the seqs [base, base+64),
// base a multiple of 64, with the bits of seqs outside [from, to)
// cleared. The ring's length is a multiple of 64, so a seq's bit sits at
// seq&63 of its word whatever the ring size, and the word after a ring's
// last one is its first. The stages walk a range of the window with it
// one word at a time, popping set bits oldest first:
//
//	for base := from &^ 63; base < to; base += 64 {
//		for w := c.word(set, base, from, to); w != 0; w &= w - 1 {
//			seq := base + bits.TrailingZeros64(w)
//
// A walk reads each word once, when it reaches it, so it sees no later
// change to a word it has reached; the walking stages change only the
// bit just visited, or stop.
//
//slacksim:hotpath
func (c *Core) word(set []uint64, base, from, to int) uint64 {
	w := set[(base&(len(c.rob)-1))>>6]
	if from > base {
		w &^= 1<<(from-base) - 1
	}
	if to-base < 64 {
		w &= 1<<(to-base) - 1
	}
	return w
}

// subscribe sets up e's wakeup state from its srcProd: it captures each
// operand the op reads whose value is known (its producer committed or is
// done), counts the producers still in flight and not done, links e into
// their wake lists, and adds e to the ready set when none is left.
// Entries must subscribe in seq order (dispatch order), which keeps every
// wake list youngest first. A register with no in-window producer cannot
// change before e commits, as only older entries write it.
//
//slacksim:hotpath
func (c *Core) subscribe(e *robEntry) {
	info := e.inst.Op.Info()
	e.pending = 0
	e.wakeHead = noLink
	e.wakeNext = [2]int{noLink, noLink}
	e.src = [2]uint64{}
	for i := range e.srcProd {
		if !info.Reads[i] {
			continue
		}
		switch pe := c.bySeq(e.srcProd[i]); {
		case pe == nil:
			e.src[i] = c.regs[[2]isa.Reg{e.inst.Src1, e.inst.Src2}[i]]
		case pe.state == stDone:
			e.src[i] = pe.result
		default:
			e.pending++
			e.wakeNext[i] = pe.wakeHead
			pe.wakeHead = e.seq<<1 | i
		}
	}
	if e.pending == 0 && e.state == stDispatched && !info.Serial {
		c.setBit(c.ready, e.seq)
	}
}

// markDone moves e to stDone and wakes its subscribers: each captures
// e's result, loses one pending producer and joins the ready set at
// zero. Every transition to stDone goes through here.
//
//slacksim:hotpath
func (c *Core) markDone(e *robEntry) {
	e.state = stDone
	for link := e.wakeHead; link != noLink; {
		ce, op := c.entry(link>>1), link&1
		link, ce.wakeNext[op] = ce.wakeNext[op], noLink
		ce.src[op] = e.result
		ce.pending--
		if ce.pending == 0 {
			c.setBit(c.ready, ce.seq)
		}
	}
	e.wakeHead = noLink
}

// dropSubscribers unlinks the subscribers younger than keep, which a
// squash is about to discard, from every surviving entry's wake list. A
// wake list runs youngest first, so they are its prefix; the squashed
// entries' slots still hold their links until dispatch reuses them.
//
//slacksim:hotpath
func (c *Core) dropSubscribers(keep int) {
	for seq := c.robHead; seq <= keep; seq++ {
		e := c.entry(seq)
		for e.wakeHead != noLink && e.wakeHead>>1 > keep {
			e.wakeHead = c.entry(e.wakeHead >> 1).wakeNext[e.wakeHead&1]
		}
	}
}

// rebuildWakeups recomputes the wakeup state and the issued and stores
// bitsets of the whole window from the entries' architectural fields, as
// dispatch, issue and commit maintain them.
//
//slacksim:hotpath
func (c *Core) rebuildWakeups() {
	clear(c.ready)
	clear(c.issued)
	clear(c.stores)
	for seq := c.robHead; seq < c.nextSeq; seq++ {
		e := c.entry(seq)
		c.subscribe(e)
		if e.state == stIssued {
			c.setBit(c.issued, seq)
		}
		if e.inst.Op == isa.Store {
			c.setBit(c.stores, seq)
		}
	}
}
