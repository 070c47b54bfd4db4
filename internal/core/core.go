package core

import (
	"fmt"

	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
)

type fetched struct {
	pc        int
	inst      isa.Inst
	predTaken bool
}

// Stats aggregates per-core performance counters. The json tags are part
// of the stable Results serialization contract (see engine.Results).
type Stats struct {
	Cycles       int64  `json:"cycles"`
	Committed    uint64 `json:"committed"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`
	Branches     uint64 `json:"branches"`
	Mispredicts  uint64 `json:"mispredicts"`
	Flushes      uint64 `json:"flushes"`
	LockRetries  uint64 `json:"lock_retries"`
	BarrierWait  int64  `json:"barrier_wait"`   // cycles spent with a barrier op stalled at head
	LockWait     int64  `json:"lock_wait"`      // cycles spent with a lock op stalled at head
	IdleAfterEnd int64  `json:"idle_after_end"` // cycles ticked after Halt committed
}

// CPI returns cycles per committed instruction (0 when nothing committed).
func (s Stats) CPI() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Committed)
}

// Core is one simulated out-of-order core with its private L1 caches.
// It is single-goroutine state: exactly one host thread (its core thread)
// may call Tick; cross-thread communication happens only through the
// OutQ/InQ event queues and the syncctl controller, mirroring SlackSim.
type Core struct {
	cfg  Config
	prog *isa.Program
	mem  *mem.Memory
	sync *syncctl.Controller

	outQ *event.Queue[event.Request]
	inQ  *event.Queue[event.Msg]

	l1i, l1d *cache.Cache
	imshr    *cache.MSHRFile
	dmshr    *cache.MSHRFile
	pred     *Predictor

	now  int64
	regs [isa.NumRegs]uint64

	// mapTable maps an architectural register to the seq of the youngest
	// in-flight producer, or -1.
	mapTable [isa.NumRegs]int

	// rob is the reorder-buffer ring; ready, issued and stores are its
	// one-bit-per-slot ready set, executing set and store set. The live
	// window is [robHead, nextSeq). See rob.go.
	rob      []robEntry
	ready    []uint64
	issued   []uint64
	stores   []uint64
	robHead  int
	nextSeq  int
	fetchBuf []fetched

	fetchPC         int
	fetchStallUntil int64
	// serializeSeq is the seq of an in-flight sync/halt instruction; while
	// set, dispatch is blocked (sync ops execute non-speculatively at the
	// head of the ROB).
	serializeSeq int

	halted bool
	reqID  uint64

	// rec, when set, receives the in-order architectural retire stream
	// (see recorder.go). Nil outside recording runs: one predictable
	// branch on the retire path.
	rec OpRecorder

	stats Stats
}

// New builds a core executing prog against the shared memory image and
// synchronization controller, communicating through outQ (to the manager)
// and inQ (from the manager).
func New(cfg Config, prog *isa.Program, m *mem.Memory, sc *syncctl.Controller,
	outQ *event.Queue[event.Request], inQ *event.Queue[event.Msg]) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:   cfg,
		prog:  prog,
		mem:   m,
		sync:  sc,
		outQ:  outQ,
		inQ:   inQ,
		l1i:   cache.New(cfg.L1I),
		l1d:   cache.New(cfg.L1D),
		imshr: cache.NewMSHRFile(cfg.InstMSHRs),
		dmshr: cache.NewMSHRFile(cfg.DataMSHRs),
		pred:  NewPredictor(cfg.BimodalEntries),

		serializeSeq: -1,
	}
	for i := range c.mapTable {
		c.mapTable[i] = -1
	}
	c.growROB()
	return c, nil
}

// MustNew is New but panics on error, for static configurations.
func MustNew(cfg Config, prog *isa.Program, m *mem.Memory, sc *syncctl.Controller,
	outQ *event.Queue[event.Request], inQ *event.Queue[event.Msg]) *Core {
	c, err := New(cfg, prog, m, sc, outQ, inQ)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset returns the core to its freshly-constructed state running prog,
// keeping the configuration, shared-structure wiring, and every pooled
// backing (ROB ring, cache arrays, MSHR waiter backings, predictor
// table). Used when a pooled machine is recycled for a new run.
func (c *Core) Reset(prog *isa.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	c.prog = prog
	c.l1i.Reset()
	c.l1d.Reset()
	c.imshr.Reset()
	c.dmshr.Reset()
	c.pred.Reset()
	c.now = 0
	c.regs = [isa.NumRegs]uint64{}
	for i := range c.mapTable {
		c.mapTable[i] = -1
	}
	clear(c.ready)
	clear(c.issued)
	clear(c.stores)
	c.robHead = 0
	c.nextSeq = 0
	c.fetchBuf = c.fetchBuf[:0]
	c.fetchPC = 0
	c.fetchStallUntil = 0
	c.serializeSeq = -1
	c.halted = false
	c.reqID = 0
	c.rec = nil
	c.stats = Stats{}
	return nil
}

// ID returns the core's index.
func (c *Core) ID() int { return c.cfg.ID }

// Now returns the core's local time in cycles.
func (c *Core) Now() int64 { return c.now }

// Halted reports whether the program has committed its Halt.
func (c *Core) Halted() bool { return c.halted }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Committed returns the committed-instruction count (the one counter the
// engine reads on every pacing step, without copying the rest).
func (c *Core) Committed() uint64 { return c.stats.Committed }

// L1I and L1D expose the caches for stats and tests.
func (c *Core) L1I() *cache.Cache { return c.l1i }

// L1D returns the data cache.
func (c *Core) L1D() *cache.Cache { return c.l1d }

// Reg returns the architectural value of register r (committed state).
func (c *Core) Reg(r isa.Reg) uint64 { return c.regs[r] }

// InFlight returns the number of ROB entries, for tests.
func (c *Core) InFlight() int { return c.robLen() }

func (c *Core) codeLine(pc int) uint64 {
	return cache.LineAddr(c.cfg.CodeBase + uint64(pc)*isa.InstBytes)
}

func (c *Core) sendReq(kind coherence.BusReq, lineAddr uint64) uint64 {
	c.reqID++
	c.outQ.Push(event.Request{
		ID: c.reqID, Core: c.cfg.ID, Kind: kind, LineAddr: lineAddr, TS: c.now,
	})
	return c.reqID
}

// writesDest reports whether the instruction produces a register result
// (writes to r0 are architectural no-ops and are not renamed).
func writesDest(in isa.Inst) bool {
	return in.Op.Info().Writes && in.Dst != isa.Zero
}

func (c *Core) String() string {
	return fmt.Sprintf("core%d{t=%d pc=%d rob=%d halted=%v}",
		c.cfg.ID, c.now, c.fetchPC, c.robLen(), c.halted)
}
