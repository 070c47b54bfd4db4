package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"slacksim/internal/adaptive"
	"slacksim/internal/coherence"
	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/trace"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
	"slacksim/internal/wire"
)

// ErrSnapshotted reports that a run stopped at a checkpoint boundary to
// export its state (RunConfig.SnapshotRequest): the serialized state was
// delivered through RunConfig.OnSnapshot and the run can be continued —
// on any node — with Resume.
var ErrSnapshotted = errors.New("engine: run snapshotted at checkpoint boundary")

// EngineStateVersion versions the serialized engine state produced by
// snapshot export (bump on any layout change; Resume rejects mismatches).
const EngineStateVersion = 2

// countingSource wraps a rand.Source and counts Int63 draws so a run's
// RNG position can be exported and fast-forwarded on resume.
//
// It deliberately implements only rand.Source (not Source64): rand.Rand
// falls back to Int63 for every method the engine uses (Int63n, Intn),
// so the stream is identical to rand.New(rand.NewSource(seed)) — and
// every draw is observable, which a Source64 would break (Uint64 would
// bypass Int63).
type countingSource struct {
	src rand.Source
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed)}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// snapshotRequested reports whether the run should export its state at
// the next checkpoint boundary.
func (cfg RunConfig) snapshotRequested() bool {
	return cfg.SnapshotRequest != nil && cfg.SnapshotRequest.Load() && cfg.OnSnapshot != nil
}

// maxQueue bounds a decoded GQ, in-queue or out-queue, beyond the bytes
// it must be backed by.
const maxQueue = 1 << 20

// exportSnapshot serializes the complete run state. It must be called at
// a quiesced checkpoint boundary: all core clocks equal, the manager
// drained, no rollback pending, no replay in progress — exactly the
// state after atBoundary's takeCheckpoint.
func (r *detRun) exportSnapshot() []byte {
	st := runState{run: r, seed: r.cfg.Seed, scheme: r.cfg.Scheme.Name(), rngDraws: r.rngSrc.n,
		unc: r.m.unc.Snapshot(), mem: r.m.mem, sync: r.m.sync, det: r.m.det, ctrl: r.ctrl}
	for i, c := range r.m.cores {
		st.cores = append(st.cores, c.Snapshot())
		st.inQs = append(st.inQs, r.m.inQs[i].Snapshot())
		st.outs = append(st.outs, r.m.outQs[i].Snapshot())
	}
	return st.encode()
}

// runState is an exported run: the run's identity and RNG position, its
// pacing scalars (global time, bound, retired mask, GQ, Lax-P2P gates,
// meter, checkpoint and rollback counters) in the fields of run, then
// every component state, in payload order. The controller follows only
// when the run has one.
type runState struct {
	run      *detRun
	seed     int64
	scheme   string
	rngDraws uint64
	cores    []*core.Snapshot
	unc      *uncore.Snapshot
	mem      *mem.Memory
	sync     *syncctl.Controller
	det      *violation.Detector
	inQs     [][]event.Msg
	outs     [][]event.Request
	ctrl     *adaptive.Controller
}

// component is one named section of the payload after the header.
type component struct {
	name   string
	encode func(*wire.Writer)
	decode func(*wire.Reader)
}

// components lists the payload's sections after the header; the same
// list serves the encoder and the decoder.
func (s *runState) components() []component {
	cs := []component{
		{"cores", func(w *wire.Writer) {
			for _, c := range s.cores {
				c.Encode(w)
			}
		}, func(r *wire.Reader) {
			for _, c := range s.cores {
				c.Decode(r)
			}
		}},
		{"uncore", s.unc.Encode, s.unc.Decode},
		{"memory", s.mem.Encode, s.mem.Decode},
		{"sync", s.sync.Encode, s.sync.Decode},
		{"detector", s.det.Encode, s.det.Decode},
		{"inqs", func(w *wire.Writer) {
			for _, q := range s.inQs {
				wire.List(w, q, func(m event.Msg) {
					w.Byte(byte(m.Kind))
					w.Uvarint(m.ReqID)
					w.Uvarint(m.LineAddr)
					w.Byte(byte(m.NewState))
					w.Varint(m.TS)
				})
			}
		}, func(r *wire.Reader) {
			for i := range s.inQs {
				s.inQs[i] = wire.ReadList(r, "in-queue entries", maxQueue, func() event.Msg {
					return event.Msg{Kind: event.MsgKind(r.Byte()), ReqID: r.Uvarint(), LineAddr: r.Uvarint(),
						NewState: coherence.State(r.Byte()), TS: r.Varint()}
				})
			}
		}},
		{"outqs", func(w *wire.Writer) {
			for _, q := range s.outs {
				wire.List(w, q, func(q event.Request) { encodeRequest(w, q) })
			}
		}, func(r *wire.Reader) {
			for i := range s.outs {
				s.outs[i] = wire.ReadList(r, "out-queue entries", maxQueue, func() event.Request { return decodeRequest(r) })
			}
		}},
	}
	if s.ctrl != nil {
		cs = append(cs, component{"controller", s.ctrl.Encode, s.ctrl.Decode})
	}
	return cs
}

func encodeRequest(w *wire.Writer, q event.Request) {
	w.Uvarint(q.ID)
	w.Int(q.Core)
	w.Byte(byte(q.Kind))
	w.Uvarint(q.LineAddr)
	w.Varint(q.TS)
}

func decodeRequest(r *wire.Reader) event.Request {
	return event.Request{ID: r.Uvarint(), Core: r.Int(), Kind: coherence.BusReq(r.Byte()), LineAddr: r.Uvarint(), TS: r.Varint()}
}

// encode serializes the state.
func (s *runState) encode() []byte {
	w, run := new(wire.Writer), s.run
	w.Uvarint(EngineStateVersion)
	w.Int(len(s.cores))
	w.Varint(s.seed)
	w.String(s.scheme)
	for _, b := range run.retired {
		w.Bool(b)
	}
	wire.List(w, run.gq, func(p pendingReq) { encodeRequest(w, p.req); w.Uvarint(p.arr) })
	wire.List(w, run.p2pNext, w.Varint)
	wire.List(w, run.p2pPartner, w.Int)
	wire.List(w, run.p2pBlocked, w.Bool)
	m := &run.meter
	for _, v := range [...]int64{run.global, run.bound, m.coreCycles, m.ckptWords, m.rbackWords, run.lastAdapt,
		run.nextCkpt, int64(run.rollbacks), run.wasted, run.replayed, int64(run.ckpts), run.ckptWords} {
		w.Varint(v)
	}
	for _, v := range [...]uint64{run.arrival, m.events, m.suspensions, m.violChecked, m.adaptOps, s.rngDraws} {
		w.Uvarint(v)
	}
	w.Bool(s.ctrl != nil)
	for _, c := range s.components() {
		c.encode(w)
	}
	return w.Bytes()
}

// decodeRunState decodes an exported run for a machine of numCores cores,
// its pacing scalars into run. It checks the version and the core count
// before it sizes anything by them; what the state holds is the caller's
// to check.
func decodeRunState(state []byte, numCores int, run *detRun) (*runState, error) {
	in := wire.NewReader(state)
	s := &runState{run: run}
	if v := in.Uvarint(); in.Err() == nil && v != EngineStateVersion {
		in.Failf("not SLKSNAP2 engine state (version %d, this binary speaks %d)", v, EngineStateVersion)
	}
	if n := in.Int(); in.Err() == nil && n != numCores {
		in.Failf("state has %d cores, machine has %d", n, numCores)
	}
	s.seed, s.scheme = in.Varint(), in.String("scheme name bytes", 64)
	run.retired = make([]bool, numCores)
	for i := range run.retired {
		run.retired[i] = in.Bool()
	}
	run.gq = wire.ReadList(in, "GQ entries", maxQueue, func() pendingReq { return pendingReq{decodeRequest(in), in.Uvarint()} })
	// checkP2P holds the Lax-P2P lists to the core count exactly.
	run.p2pNext = wire.ReadList(in, "Lax-P2P state entries", numCores, in.Varint)
	run.p2pPartner = wire.ReadList(in, "Lax-P2P state entries", numCores, in.Int)
	run.p2pBlocked = wire.ReadList(in, "Lax-P2P state entries", numCores, in.Bool)
	m := &run.meter
	run.global, run.bound, m.coreCycles, m.ckptWords, m.rbackWords = in.Varint(), in.Varint(), in.Varint(), in.Varint(), in.Varint()
	run.lastAdapt, run.nextCkpt, run.rollbacks, run.wasted = in.Varint(), in.Varint(), in.Int(), in.Varint()
	run.replayed, run.ckpts, run.ckptWords = in.Varint(), in.Int(), in.Varint()
	run.arrival, m.events, m.suspensions, m.violChecked, m.adaptOps = in.Uvarint(), in.Uvarint(), in.Uvarint(), in.Uvarint(), in.Uvarint()
	s.rngDraws = in.Uvarint()
	if in.Bool() {
		s.ctrl = &adaptive.Controller{}
	}
	if err := in.Err(); err != nil {
		return nil, fmt.Errorf("engine: resume header: %w", err)
	}
	s.unc, s.mem, s.sync, s.det = &uncore.Snapshot{}, mem.New(), syncctl.New(numCores), violation.NewDetector()
	s.inQs, s.outs = make([][]event.Msg, numCores), make([][]event.Request, numCores)
	for range numCores {
		s.cores = append(s.cores, new(core.Snapshot))
	}
	for _, c := range s.components() {
		if c.decode(in); in.Err() != nil {
			return nil, fmt.Errorf("engine: resume %s: %w", c.name, in.Err())
		}
	}
	if err := in.Done(); err != nil {
		return nil, fmt.Errorf("engine: resume: %w", err)
	}
	return s, nil
}

// checkQueues reports why the decoded GQ, in-queues or out-queues cannot
// be restored, or nil. The manager indexes in-queues by a request's core
// and feeds request timestamps to the bus's arithmetic, so every request
// must name a core of the machine (its own, in an out-queue) and a bus
// transaction a core can issue, and every message a kind the core
// handles and a coherence state; every timestamp must lie in
// [0, maxCycles]. GQ arrival stamps must be unique and at most the
// arrival counter, since arbitration order breaks ties on them.
func (s *runState) checkQueues(maxCycles int64) error {
	n, gq, arrival := len(s.cores), s.run.gq, s.run.arrival
	checkReq := func(q event.Request, own int) error {
		switch {
		case q.Core < 0 || q.Core >= n || own >= 0 && q.Core != own:
			return fmt.Errorf("request from core %d on a %d-core machine", q.Core, n)
		case q.Kind == coherence.BusNone || q.Kind > coherence.BusIFetch:
			return fmt.Errorf("request of invalid bus kind %d", q.Kind)
		case q.TS < 0 || q.TS > maxCycles:
			return fmt.Errorf("request timestamp %d outside [0, %d]", q.TS, maxCycles)
		}
		return nil
	}
	arrivals := make([]uint64, 0, len(gq))
	for k, p := range gq {
		if err := checkReq(p.req, -1); err != nil {
			return fmt.Errorf("GQ entry %d: %w", k, err)
		}
		if p.arr == 0 || p.arr > arrival {
			return fmt.Errorf("GQ entry %d: arrival stamp %d outside [1, %d]", k, p.arr, arrival)
		}
		arrivals = append(arrivals, p.arr)
	}
	slices.Sort(arrivals)
	for k := 1; k < len(arrivals); k++ {
		if arrivals[k] == arrivals[k-1] {
			return fmt.Errorf("GQ arrival stamp %d is not unique", arrivals[k])
		}
	}
	for i := range s.outs {
		for k, q := range s.outs[i] {
			if err := checkReq(q, i); err != nil {
				return fmt.Errorf("core %d out-queue entry %d: %w", i, k, err)
			}
		}
	}
	for i := range s.inQs {
		for k, msg := range s.inQs[i] {
			switch {
			case msg.Kind != event.MsgReply && msg.Kind != event.MsgInval:
				return fmt.Errorf("core %d in-queue entry %d: invalid message kind %d", i, k, msg.Kind)
			case msg.NewState > coherence.Modified:
				return fmt.Errorf("core %d in-queue entry %d: invalid coherence state %d", i, k, msg.NewState)
			case msg.TS < 0 || msg.TS > maxCycles:
				return fmt.Errorf("core %d in-queue entry %d: message timestamp %d outside [0, %d]", i, k, msg.TS, maxCycles)
			}
		}
	}
	return nil
}

// checkPacing reports why the decoded pacing scalars cannot belong to a
// run of cfg, or nil. Resume fast-forwards the scheduler's RNG draw by
// draw, so the draw count is bounded by what the run's own counters allow.
// A boundary export sees every core clock at most Global, so the ticks
// that survive are at most cores·Global; with rollback each checkpoint
// interval is rolled back at most once and discards at most one interval
// of ticks per core, at most cores·(Global + interval) more. Every pick
// ticks at least one core cycle and draws once for its chunk, once for
// the core and at most once per core for a Lax-P2P partner; the draw
// bound carries a factor of two for Int63n's and Intn's rare rejected
// draws.
func (s *runState) checkPacing(cfg RunConfig) error {
	n, global, cycles := uint64(len(s.cores)), s.run.global, s.run.meter.coreCycles
	if global < 0 || global > cfg.MaxCycles {
		return fmt.Errorf("global time %d outside [0, %d]", global, cfg.MaxCycles)
	}
	maxTicks := 2 * n * uint64(global+cfg.CheckpointInterval)
	if cycles < 0 || uint64(cycles) > maxTicks {
		return fmt.Errorf("meter counts %d core cycles, more than %d cores can tick by global time %d",
			cycles, n, global)
	}
	if maxDraws := 2 * (2 + n) * uint64(cycles); s.rngDraws > maxDraws {
		return fmt.Errorf("RNG draw count %d exceeds the %d that %d core cycles allow",
			s.rngDraws, maxDraws, cycles)
	}
	return nil
}

// checkP2P reports why the decoded Lax-P2P gate state cannot be
// restored, or nil. A Lax-P2P run carries a next sync point, a partner
// and a blocked flag per core, any other run none of them. The gate
// indexes the retired mask and the cores by a partner, which is -1 (none
// chosen) or another core, and a sync point is a non-negative cycle.
func (s *runState) checkP2P(laxP2P bool) error {
	n, h := 0, s.run
	if laxP2P {
		n = len(s.cores)
	}
	if len(h.p2pNext) != n || len(h.p2pPartner) != n || len(h.p2pBlocked) != n {
		return fmt.Errorf("Lax-P2P state has %d/%d/%d sync points/partners/flags, want %d each",
			len(h.p2pNext), len(h.p2pPartner), len(h.p2pBlocked), n)
	}
	for i := 0; i < n; i++ {
		if p := h.p2pPartner[i]; p < -1 || p >= n || p == i {
			return fmt.Errorf("core %d has Lax-P2P partner %d on a %d-core machine", i, p, n)
		}
		if h.p2pNext[i] < 0 {
			return fmt.Errorf("core %d has Lax-P2P next sync point %d", i, h.p2pNext[i])
		}
	}
	return nil
}

// Resume continues a run exported by a snapshot request. The machine
// must be freshly built from the same spec (same workload, cores, and
// configuration) that produced the snapshot, and cfg must be the same
// run configuration; the continued run then produces Results identical
// to an uninterrupted run (WallClock aside).
func Resume(m *Machine, cfg RunConfig, state []byte) (res Results, err error) {
	// Set the run up the way Run does; the decoded pacing scalars and the
	// restored components then overwrite the fresh state.
	var r detRun
	if err := r.init(m, cfg); err != nil {
		return Results{}, err
	}
	cfg = r.cfg

	st, err := decodeRunState(state, m.NumCores(), &r)
	if err != nil {
		return Results{}, err
	}
	if st.seed != cfg.Seed {
		return Results{}, fmt.Errorf("engine: resume: state seed %d, config seed %d", st.seed, cfg.Seed)
	}
	if name := cfg.Scheme.Name(); st.scheme != name {
		return Results{}, fmt.Errorf("engine: resume: state scheme %q, config scheme %q", st.scheme, name)
	}
	if cfg.Scheme.Kind == Adaptive && st.ctrl == nil {
		return Results{}, fmt.Errorf("engine: resume: adaptive scheme but no controller state")
	}
	for i, c := range m.cores {
		if err := c.CheckSnapshot(st.cores[i]); err != nil {
			return Results{}, fmt.Errorf("engine: resume: %w", err)
		}
	}
	if err := m.unc.CheckSnapshot(st.unc, cfg.MaxCycles); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	if err := st.checkQueues(cfg.MaxCycles); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	if err := st.checkPacing(cfg); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	if err := st.checkP2P(cfg.Scheme.Kind == LaxP2P); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	if err := m.det.CheckSnapshot(st.det, r.global); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	r.ctrl = st.ctrl

	// Overwrite the fresh machine's components in place (the machine's
	// internal wiring — queues shared with the uncore, the detector fed by
	// it — stays intact because every Restore copies content, not
	// pointers). The pacing scalars were decoded into r.
	for i, c := range m.cores {
		c.Restore(st.cores[i])
		m.inQs[i].Restore(st.inQs[i])
		m.outQs[i].Restore(st.outs[i])
	}
	m.unc.Restore(st.unc)
	m.mem.Restore(st.mem)
	m.sync.Restore(st.sync)
	m.det.Restore(st.det)

	// A payload within the bounds can still ask for billions of draws, so
	// the fast-forward honors an interrupt like the run itself.
	for i := uint64(0); i < st.rngDraws; i++ {
		if i%(1<<16) == 0 && cfg.interrupted() {
			return Results{}, ErrInterrupted
		}
		r.rngSrc.Int63()
	}

	// The exported run held a checkpoint taken at the export boundary;
	// rebuild it from the (identical) restored live state. The checkpoint
	// was already charged to the meter before export, so this rebuild
	// does not touch the accounting.
	if cfg.CheckpointInterval > 0 {
		r.capture()
	}
	r.cfg.Tracer.Addf(r.global, -1, trace.Checkpoint, "resumed from snapshot @%d", r.global)
	// The checks bound every structure, but register and memory values
	// are the payload's to choose: a program run on forged values can hit
	// the simulator's assertions on workload bugs (an unaligned access, a
	// release of a lock not held). They fail the resume, not the process.
	defer func() {
		if p := recover(); p != nil {
			res, err = Results{}, fmt.Errorf("engine: resumed run: %v", p)
		}
	}()
	return r.run()
}
