package engine

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"slacksim/internal/adaptive"
	"slacksim/internal/coherence"
	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/trace"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
)

// encBufPool recycles snapshot-encode buffers across exports.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ErrSnapshotted reports that a run stopped at a checkpoint boundary to
// export its state (RunConfig.SnapshotRequest): the serialized state was
// delivered through RunConfig.OnSnapshot and the run can be continued —
// on any node — with Resume.
var ErrSnapshotted = errors.New("engine: run snapshotted at checkpoint boundary")

// EngineStateVersion versions the serialized engine state produced by
// snapshot export (bump on any layout change; Resume rejects mismatches).
const EngineStateVersion = 1

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

// meterWire mirrors costMeter for serialization.
type meterWire struct {
	CoreCycles  int64
	Events      uint64
	Suspensions uint64
	ViolChecked uint64
	AdaptOps    uint64
	CkptWords   int64
	RbackWords  int64
}

// pendingWire mirrors pendingReq for serialization.
type pendingWire struct {
	Req event.Request
	Arr uint64
}

// engineHeader carries the run's scalar pacing state. The component
// states (cores, uncore, memory, synchronization, violations, adaptive
// controller, event queues) follow it in the gob stream as separate
// values, each with its own wire method.
type engineHeader struct {
	Version  int
	Seed     int64
	NumCores int
	Scheme   string

	Global  int64
	Bound   int64
	Retired []bool
	GQ      []pendingWire
	Arrival uint64

	P2PNext    []int64
	P2PPartner []int
	P2PBlocked []bool

	Meter     meterWire
	LastAdapt int64

	NextCkpt  int64
	Rollbacks int
	Wasted    int64
	Replayed  int64
	Ckpts     int
	CkptWords int64

	RNGDraws uint64
	HasCtrl  bool
}

// exportSnapshot serializes the complete run state. It must be called at
// a quiesced checkpoint boundary: all core clocks equal, the manager
// drained, no rollback pending, no replay in progress — exactly the
// state after atBoundary's takeCheckpoint.
func (r *detRun) exportSnapshot() ([]byte, error) {
	hdr := engineHeader{
		Version:  EngineStateVersion,
		Seed:     r.cfg.Seed,
		NumCores: r.m.NumCores(),
		Scheme:   r.cfg.Scheme.Name(),

		Global:  r.global,
		Bound:   r.bound,
		Retired: r.retired,
		Arrival: r.arrival,

		P2PNext:    r.p2pNext,
		P2PPartner: r.p2pPartner,
		P2PBlocked: r.p2pBlocked,

		Meter: meterWire{
			CoreCycles: r.meter.coreCycles, Events: r.meter.events,
			Suspensions: r.meter.suspensions, ViolChecked: r.meter.violChecked,
			AdaptOps: r.meter.adaptOps, CkptWords: r.meter.ckptWords,
			RbackWords: r.meter.rbackWords,
		},
		LastAdapt: r.lastAdapt,

		NextCkpt:  r.nextCkpt,
		Rollbacks: r.rollbacks,
		Wasted:    r.wasted,
		Replayed:  r.replayed,
		Ckpts:     r.ckpts,
		CkptWords: r.ckptWords,

		RNGDraws: r.rngSrc.n,
		HasCtrl:  r.ctrl != nil,
	}
	for _, p := range r.gq {
		hdr.GQ = append(hdr.GQ, pendingWire{Req: p.req, Arr: p.arr})
	}
	st := runState{hdr: hdr, unc: r.m.unc.Snapshot(), mem: r.m.mem, sync: r.m.sync, det: r.m.det, ctrl: r.ctrl}
	for i, c := range r.m.cores {
		st.cores = append(st.cores, c.Snapshot())
		st.inQs = append(st.inQs, r.m.inQs[i].Snapshot())
		st.outs = append(st.outs, r.m.outQs[i].Snapshot())
	}
	return st.encode()
}

// runState is an exported run: the header, then every component state,
// in gob stream order. The controller follows only when the header says
// the run has one.
type runState struct {
	hdr   engineHeader
	cores []*core.Snapshot
	unc   *uncore.Snapshot
	mem   *mem.Memory
	sync  *syncctl.Controller
	det   *violation.Detector
	inQs  [][]event.Msg
	outs  [][]event.Request
	ctrl  *adaptive.Controller
}

// streamValue is one named value of the gob stream.
type streamValue struct {
	name string
	v    any
}

// components lists the stream's values after the header, as pointers so
// that the same list serves the encoder and the decoder.
func (s *runState) components() []streamValue {
	return []streamValue{
		{"cores", &s.cores},
		{"uncore", s.unc},
		{"memory", s.mem},
		{"sync", s.sync},
		{"detector", s.det},
		{"inqs", &s.inQs},
		{"outqs", &s.outs},
	}
}

// encode serializes the state. The gob stream is assembled in a pooled
// buffer (repeated exports of a live run reuse the same grown backing);
// the returned bytes are copied out because the caller owns them
// indefinitely.
func (s *runState) encode() ([]byte, error) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer encBufPool.Put(buf)
	enc := gob.NewEncoder(buf)
	if err := enc.Encode(&s.hdr); err != nil {
		return nil, fmt.Errorf("engine: snapshot header: %w", err)
	}
	for _, c := range s.components() {
		if err := enc.Encode(c.v); err != nil {
			return nil, fmt.Errorf("engine: snapshot %s: %w", c.name, err)
		}
	}
	if s.hdr.HasCtrl {
		if err := enc.Encode(s.ctrl); err != nil {
			return nil, fmt.Errorf("engine: snapshot controller: %w", err)
		}
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// decodeRunState decodes an exported run for a machine of numCores cores.
// It checks the header's version and core count before it sizes anything
// by them; what the components hold is the caller's to check.
func decodeRunState(state []byte, numCores int) (*runState, error) {
	dec := gob.NewDecoder(bytes.NewReader(state))
	s := &runState{}
	if err := dec.Decode(&s.hdr); err != nil {
		return nil, fmt.Errorf("engine: resume header: %w", err)
	}
	if s.hdr.Version != EngineStateVersion {
		return nil, fmt.Errorf("engine: resume: state version %d, this binary speaks %d", s.hdr.Version, EngineStateVersion)
	}
	if s.hdr.NumCores != numCores {
		return nil, fmt.Errorf("engine: resume: state has %d cores, machine has %d", s.hdr.NumCores, numCores)
	}
	s.unc, s.mem, s.sync, s.det = &uncore.Snapshot{}, mem.New(), syncctl.New(numCores), violation.NewDetector()
	for _, c := range s.components() {
		if err := dec.Decode(c.v); err != nil {
			return nil, fmt.Errorf("engine: resume %s: %w", c.name, err)
		}
	}
	if s.hdr.HasCtrl {
		s.ctrl = &adaptive.Controller{}
		if err := dec.Decode(s.ctrl); err != nil {
			return nil, fmt.Errorf("engine: resume controller: %w", err)
		}
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
// header's Arrival counter, since arbitration order breaks ties on them.
func (s *runState) checkQueues(maxCycles int64) error {
	n := s.hdr.NumCores
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
	arrivals := make([]uint64, 0, len(s.hdr.GQ))
	for k, p := range s.hdr.GQ {
		if err := checkReq(p.Req, -1); err != nil {
			return fmt.Errorf("GQ entry %d: %w", k, err)
		}
		if p.Arr == 0 || p.Arr > s.hdr.Arrival {
			return fmt.Errorf("GQ entry %d: arrival stamp %d outside [1, %d]", k, p.Arr, s.hdr.Arrival)
		}
		arrivals = append(arrivals, p.Arr)
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

// checkPacing reports why the header's pacing scalars cannot belong to a
// run of cfg, or nil. Resume fast-forwards the scheduler's RNG draw by
// draw, so RNGDraws is bounded by what the header's own counters allow.
// A boundary export sees every core clock at most Global, so the ticks
// that survive are at most cores·Global; with rollback each checkpoint
// interval is rolled back at most once and discards at most one interval
// of ticks per core, at most cores·(Global + interval) more. Every pick
// ticks at least one core cycle and draws once for its chunk, once for
// the core and at most once per core for a Lax-P2P partner; the draw
// bound carries a factor of two for Int63n's and Intn's rare rejected
// draws.
func (h *engineHeader) checkPacing(cfg RunConfig) error {
	n := uint64(h.NumCores)
	if h.Global < 0 || h.Global > cfg.MaxCycles {
		return fmt.Errorf("global time %d outside [0, %d]", h.Global, cfg.MaxCycles)
	}
	maxTicks := 2 * n * uint64(h.Global+cfg.CheckpointInterval)
	if h.Meter.CoreCycles < 0 || uint64(h.Meter.CoreCycles) > maxTicks {
		return fmt.Errorf("meter counts %d core cycles, more than %d cores can tick by global time %d",
			h.Meter.CoreCycles, n, h.Global)
	}
	if maxDraws := 2 * (2 + n) * uint64(h.Meter.CoreCycles); h.RNGDraws > maxDraws {
		return fmt.Errorf("RNG draw count %d exceeds the %d that %d core cycles allow",
			h.RNGDraws, maxDraws, h.Meter.CoreCycles)
	}
	return nil
}

// checkP2P reports why the header's Lax-P2P gate state cannot be
// restored, or nil. A Lax-P2P run carries a next sync point, a partner
// and a blocked flag per core, any other run none of them. The gate
// indexes the retired mask and the cores by a partner, which is -1 (none
// chosen) or another core, and a sync point is a non-negative cycle.
func (h *engineHeader) checkP2P(laxP2P bool) error {
	n := 0
	if laxP2P {
		n = h.NumCores
	}
	if len(h.P2PNext) != n || len(h.P2PPartner) != n || len(h.P2PBlocked) != n {
		return fmt.Errorf("Lax-P2P state has %d/%d/%d sync points/partners/flags, want %d each",
			len(h.P2PNext), len(h.P2PPartner), len(h.P2PBlocked), n)
	}
	for i := 0; i < n; i++ {
		if p := h.P2PPartner[i]; p < -1 || p >= n || p == i {
			return fmt.Errorf("core %d has Lax-P2P partner %d on a %d-core machine", i, p, n)
		}
		if h.P2PNext[i] < 0 {
			return fmt.Errorf("core %d has Lax-P2P next sync point %d", i, h.P2PNext[i])
		}
	}
	return nil
}

// Resume continues a run exported by a snapshot request. The machine
// must be freshly built from the same spec (same workload, cores, and
// configuration) that produced the snapshot, and cfg must be the same
// run configuration; the continued run then produces Results identical
// to an uninterrupted run (WallClock aside).
func Resume(m *Machine, cfg RunConfig, state []byte) (Results, error) {
	// Set the run up the way Run does; the restored components and the
	// header's pacing scalars then overwrite the fresh state.
	var r detRun
	if err := r.init(m, cfg); err != nil {
		return Results{}, err
	}
	cfg = r.cfg

	st, err := decodeRunState(state, m.NumCores())
	if err != nil {
		return Results{}, err
	}
	hdr := st.hdr
	if hdr.Seed != cfg.Seed {
		return Results{}, fmt.Errorf("engine: resume: state seed %d, config seed %d", hdr.Seed, cfg.Seed)
	}
	if name := cfg.Scheme.Name(); hdr.Scheme != name {
		return Results{}, fmt.Errorf("engine: resume: state scheme %q, config scheme %q", hdr.Scheme, name)
	}
	if len(hdr.Retired) != m.NumCores() {
		return Results{}, fmt.Errorf("engine: resume: retired mask has %d entries for %d cores", len(hdr.Retired), m.NumCores())
	}
	if len(st.cores) != m.NumCores() || len(st.inQs) != m.NumCores() || len(st.outs) != m.NumCores() {
		return Results{}, fmt.Errorf("engine: resume: component counts do not match %d cores", m.NumCores())
	}
	if cfg.Scheme.Kind == Adaptive && !hdr.HasCtrl {
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
	if err := hdr.checkPacing(cfg); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	if err := hdr.checkP2P(cfg.Scheme.Kind == LaxP2P); err != nil {
		return Results{}, fmt.Errorf("engine: resume: %w", err)
	}
	r.ctrl = st.ctrl

	// Overwrite the fresh machine's components in place (the machine's
	// internal wiring — queues shared with the uncore, the detector fed by
	// it — stays intact because every Restore copies content, not
	// pointers).
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
	for i := uint64(0); i < hdr.RNGDraws; i++ {
		if i%(1<<16) == 0 && cfg.interrupted() {
			return Results{}, ErrInterrupted
		}
		r.rngSrc.Int63()
	}
	copy(r.retired, hdr.Retired)
	r.bound = hdr.Bound
	r.global = hdr.Global
	r.arrival = hdr.Arrival
	copy(r.p2pNext, hdr.P2PNext)
	copy(r.p2pPartner, hdr.P2PPartner)
	copy(r.p2pBlocked, hdr.P2PBlocked)
	r.lastAdapt = hdr.LastAdapt
	r.nextCkpt = hdr.NextCkpt
	r.rollbacks = hdr.Rollbacks
	r.wasted = hdr.Wasted
	r.replayed = hdr.Replayed
	r.ckpts = hdr.Ckpts
	r.ckptWords = hdr.CkptWords
	r.meter = costMeter{
		coreCycles: hdr.Meter.CoreCycles, events: hdr.Meter.Events,
		suspensions: hdr.Meter.Suspensions, violChecked: hdr.Meter.ViolChecked,
		adaptOps: hdr.Meter.AdaptOps, ckptWords: hdr.Meter.CkptWords,
		rbackWords: hdr.Meter.RbackWords,
	}
	for _, p := range hdr.GQ {
		r.gq = append(r.gq, pendingReq{req: p.Req, arr: p.Arr})
	}

	// The exported run held a checkpoint taken at the export boundary;
	// rebuild it from the (identical) restored live state. The checkpoint
	// was already charged to the meter before export, so this rebuild
	// does not touch the accounting.
	if cfg.CheckpointInterval > 0 {
		r.capture()
	}
	r.cfg.Tracer.Addf(r.global, -1, trace.Checkpoint, "resumed from snapshot @%d", r.global)
	return r.run()
}
