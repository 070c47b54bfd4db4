package engine_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slacksim"
	"slacksim/client"
	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/core"
	"slacksim/internal/durable"
	"slacksim/internal/engine"
	"slacksim/internal/event"
	"slacksim/internal/isa"
	"slacksim/internal/mem"
	"slacksim/internal/service/server"
	"slacksim/internal/spec"
	"slacksim/internal/violation"
)

// coreWire mirrors internal/core's snapshot wire format field for field
// (gob matches fields by name), so a test can edit a decoded core
// snapshot and encode it again.
type coreWire struct {
	Now      int64
	Regs     [isa.NumRegs]uint64
	MapTable [isa.NumRegs]int
	ROB      []robWire
	FetchBuf []fetchedWire

	FetchPC         int
	FetchStallUntil int64
	SerializeSeq    int
	NextSeq         int
	Halted          bool
	ReqID           uint64
	Stats           core.Stats

	L1I, L1D     *cache.Cache
	IMSHR, DMSHR *cache.MSHRFile
	Pred         *core.Predictor
}

type robWire struct {
	Seq   int
	PC    int
	Inst  isa.Inst
	State uint8

	SrcProd [2]int

	DoneAt    int64
	Result    uint64
	HasResult bool

	PredTaken   bool
	ActualTaken bool
	Resolved    bool

	Addr      uint64
	AddrValid bool
	StoreVal  uint64
	Written   bool

	BarrierGen     uint64
	BarrierArrived bool
	NextLockTry    int64
}

type fetchedWire struct {
	PC        int
	Inst      isa.Inst
	PredTaken bool
}

// uncoreWire mirrors internal/uncore's snapshot wire format. The bus and
// the status map keep their own encodings, which busWire and
// statusMapWire mirror in turn.
type uncoreWire struct {
	Bus  gobBlob
	L2   *cache.Cache
	Smap gobBlob

	Served, Invalidations uint64
}

type busWire struct {
	ReqRes, RespRes []int64
	Monitor         violation.Monitor
	ReqOccupancy    int64
	RespOccupancy   int64

	Grants, Conflicts, RespConflicts, Violations uint64
}

type statusMapWire struct {
	NumCores int
	Lines    []statusLineWire
}

type statusLineWire struct {
	Addr      uint64
	States    []coherence.State
	MonitorTS int64
}

// gobBlob holds a value's custom gob encoding without decoding it.
type gobBlob []byte

func (b gobBlob) GobEncode() ([]byte, error) { return b, nil }

func (b *gobBlob) GobDecode(data []byte) error {
	*b = append(gobBlob(nil), data...)
	return nil
}

// hostileSpec is a real run whose first checkpoint boundary catches core 0
// with instructions in flight.
var hostileSpec = spec.Spec{Workload: "fft", Scheme: "s8", Cores: 2, Seed: 1, CheckpointInterval: 400}

// p2pSpec is hostileSpec under Lax-P2P, whose run state carries each
// core's next sync point and partner.
var p2pSpec = spec.Spec{Workload: "fft", Scheme: "p2p100", Cores: 2, Seed: 1, CheckpointInterval: 400}

// exportAtFirstBoundary returns the SLKSNAP1 container of hostileSpec
// snapshotted at its first boundary, and the uninterrupted run's results.
func exportAtFirstBoundary(t *testing.T) ([]byte, slacksim.Results) {
	t.Helper()
	return exportSpecAtFirstBoundary(t, hostileSpec)
}

// exportSpecAtFirstBoundary is exportAtFirstBoundary for any spec.
func exportSpecAtFirstBoundary(t *testing.T, sp spec.Spec) ([]byte, slacksim.Results) {
	t.Helper()
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := slacksim.MustRun(cfg)
	var req atomic.Bool
	req.Store(true)
	var state []byte
	cfg.SnapshotRequest = &req
	cfg.OnSnapshot = func(s []byte) { state = append([]byte(nil), s...) }
	sim, err := slacksim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); !errors.Is(err, slacksim.ErrSnapshotted) {
		t.Fatalf("run: %v, want ErrSnapshotted", err)
	}
	blob, err := durable.EncodeSnapshot(sp, state)
	if err != nil {
		t.Fatal(err)
	}
	return blob, want
}

// editCore0 decodes a container, passes core 0's snapshot through mutate
// by way of coreWire, and encodes the container again.
func editCore0(t *testing.T, blob []byte, mutate func(*coreWire)) []byte {
	t.Helper()
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	state, err := engine.RewriteCoreSnapshots(snap.Engine, hostileSpec.Cores, func(i int, wire []byte) ([]byte, error) {
		if i != 0 {
			return wire, nil
		}
		var w coreWire
		if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&w); err != nil {
			return nil, err
		}
		if len(w.ROB) < 3 {
			t.Fatalf("core 0 has %d instructions in flight at the boundary; the cases need 3", len(w.ROB))
		}
		mutate(&w)
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(&w)
		return buf.Bytes(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := durable.EncodeSnapshot(snap.Spec, state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// resume continues a container's run in process, as RealRunner does.
func resume(t *testing.T, blob []byte) (slacksim.Results, error) {
	t.Helper()
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := snap.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := slacksim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Resume(snap.Engine)
}

func canonicalResults(r slacksim.Results) slacksim.Results {
	r.WallClock = 0
	return r
}

// TestResumeRejectsMalformedCoreSnapshot forges SLKSNAP1 payloads from a
// real one, each breaking one invariant the ROB ring relies on, and
// requires both engine.Resume and POST /v1/resume to fail with an error
// naming it — never a panic, a hang, or a run on corrupt state. The same
// payload passed through the forging path unedited must still resume to
// the uninterrupted run's results, so each rejection is the edit's doing.
func TestResumeRejectsMalformedCoreSnapshot(t *testing.T) {
	blob, want := exportAtFirstBoundary(t)
	robSize := core.DefaultConfig(0).ROBSize
	cases := []struct {
		name   string
		mutate func(w *coreWire)
		want   string
	}{
		{"unedited", func(w *coreWire) {}, ""},
		{"rob over ROBSize", func(w *coreWire) {
			e := w.ROB[0]
			w.ROB = w.ROB[:0]
			for i := 0; i <= robSize; i++ {
				e.Seq = w.NextSeq - (robSize + 1) + i
				w.ROB = append(w.ROB, e)
			}
		}, "ROBSize"},
		{"seq gap", func(w *coreWire) { w.ROB[1].Seq++ }, "seqs contiguous"},
		{"window short of nextSeq", func(w *coreWire) { w.NextSeq++ }, "ending at nextSeq-1"},
		{"nextSeq below window", func(w *coreWire) { w.NextSeq = len(w.ROB) - 1 }, "cannot end a window"},
		{"srcProd names itself", func(w *coreWire) {
			last := &w.ROB[len(w.ROB)-1]
			last.SrcProd[0] = last.Seq
		}, "not older"},
		{"srcProd past the window", func(w *coreWire) { w.ROB[0].SrcProd[1] = w.NextSeq + 10 }, "not older"},
		{"mapTable past the window", func(w *coreWire) { w.MapTable[5] = w.NextSeq }, "mapTable"},
		{"mapTable names a committed seq", func(w *coreWire) { w.MapTable[5] = w.ROB[0].Seq - 1 }, "mapTable"},
		{"serializeSeq past the window", func(w *coreWire) { w.SerializeSeq = w.NextSeq + 3 }, "serializeSeq"},
		{"register out of range", func(w *coreWire) { w.ROB[0].Inst.Dst = 200 }, "register out of range"},
		{"missing L1D", func(w *coreWire) { w.L1D = nil }, "missing"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkForgedResume(t, editCore0(t, blob, tc.mutate), tc.want, &want)
		})
	}
}

// checkForgedResume resumes a forged payload through engine.Resume and
// through POST /v1/resume. With want empty both must succeed, and
// engine.Resume must reproduce wantRes when it is non-nil; otherwise both
// must fail with an error mentioning want — never a panic, a hang, or a
// run on corrupt state.
func checkForgedResume(t *testing.T, forged []byte, want string, wantRes *slacksim.Results) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// A server per case: the unedited run's result would otherwise be
	// served from the cache to every later forgery of its spec.
	hs := httptest.NewServer(server.New(server.Config{Workers: 1, QueueDepth: 4}).Handler())
	defer hs.Close()
	c := client.New(hs.URL)

	got, err := resume(t, forged)
	switch {
	case want == "" && err != nil:
		t.Fatalf("engine.Resume of a valid payload: %v", err)
	case want == "" && wantRes != nil && !reflect.DeepEqual(canonicalResults(got), canonicalResults(*wantRes)):
		t.Fatalf("unedited payload resumed to different results:\n got %+v\nwant %+v", got, *wantRes)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Fatalf("engine.Resume: err = %v, want one mentioning %q", err, want)
	}

	j, err := c.Resume(ctx, forged)
	if err != nil {
		t.Fatalf("POST /v1/resume: %v", err)
	}
	fin, err := c.Wait(ctx, j.ID, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if want == "" {
		if fin.State != "done" {
			t.Fatalf("POST /v1/resume of a valid payload: %s (%s)", fin.State, fin.Error)
		}
		return
	}
	if fin.State != "failed" || !strings.Contains(fin.Error, want) {
		t.Fatalf("POST /v1/resume: job %s (%s), want failed mentioning %q", fin.State, fin.Error, want)
	}
}

// editRun decodes a container, passes its run header and queues through
// mutate, and encodes the container again.
func editRun(t *testing.T, blob []byte, mutate func(h *engine.RunHeader, inQs [][]event.Msg, outQs [][]event.Request)) []byte {
	t.Helper()
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	state, err := engine.RewriteRunState(snap.Engine, hostileSpec.Cores, mutate)
	if err != nil {
		t.Fatal(err)
	}
	out, err := durable.EncodeSnapshot(snap.Spec, state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeRejectsHostileQueuesAndPacing forges SLKSNAP1 payloads from a
// real one whose queues or pacing scalars break what Resume's restore and
// the manager rely on: requests naming a core the machine lacks (which
// used to panic the daemon with an index out of range), invalid bus or
// message kinds and coherence states, timestamps outside [0, MaxCycles],
// GQ arrival stamps that repeat or run past the arrival counter, and an
// RNG draw count, cycle count or global time the header's own counters
// cannot account for (RNGDraws = 1<<40 used to spin in the RNG
// fast-forward, uninterruptibly). Both engine.Resume and POST /v1/resume
// must fail naming the defect. A well-formed request added to an
// out-queue or the GQ must still resume, so each rejection is the edit's
// doing.
func TestResumeRejectsHostileQueuesAndPacing(t *testing.T) {
	blob, _ := exportAtFirstBoundary(t)
	type (
		hdr  = engine.RunHeader
		inQ  = [][]event.Msg
		outQ = [][]event.Request
	)
	req := func(h *hdr) event.Request {
		return event.Request{ID: 1 << 20, Core: 1, Kind: coherence.BusRd, LineAddr: 0x4000, TS: h.Global - 1}
	}
	addGQ := func(edit func(h *hdr, p *engine.PendingWire)) func(*hdr, inQ, outQ) {
		return func(h *hdr, _ inQ, _ outQ) {
			h.Arrival++
			p := engine.PendingWire{Req: req(h), Arr: h.Arrival}
			edit(h, &p)
			h.GQ = append(h.GQ, p)
		}
	}
	addOut := func(edit func(h *hdr, r *event.Request)) func(*hdr, inQ, outQ) {
		return func(h *hdr, _ inQ, outs outQ) {
			r := req(h)
			edit(h, &r)
			outs[1] = append(outs[1], r)
		}
	}
	addIn := func(edit func(m *event.Msg)) func(*hdr, inQ, outQ) {
		return func(h *hdr, ins inQ, _ outQ) {
			m := event.Msg{Kind: event.MsgInval, LineAddr: 0x4000, NewState: coherence.Invalid, TS: h.Global}
			edit(&m)
			ins[0] = append(ins[0], m)
		}
	}
	cases := []struct {
		name   string
		mutate func(*hdr, inQ, outQ)
		want   string
	}{
		{"valid GQ request", addGQ(func(*hdr, *engine.PendingWire) {}), ""},
		{"valid out-queue request", addOut(func(*hdr, *event.Request) {}), ""},
		{"valid in-queue message", addIn(func(*event.Msg) {}), ""},
		{"out-queue request from core 99", addOut(func(_ *hdr, r *event.Request) { r.Core = 99 }), "request from core 99"},
		{"out-queue request from another core", addOut(func(_ *hdr, r *event.Request) { r.Core = 0 }), "request from core 0"},
		{"GQ request from a negative core", addGQ(func(_ *hdr, p *engine.PendingWire) { p.Req.Core = -1 }), "request from core -1"},
		{"GQ request of bus kind none", addGQ(func(_ *hdr, p *engine.PendingWire) { p.Req.Kind = coherence.BusNone }), "invalid bus kind"},
		{"out-queue request of bus kind 200", addOut(func(_ *hdr, r *event.Request) { r.Kind = 200 }), "invalid bus kind"},
		{"GQ request timestamp negative", addGQ(func(_ *hdr, p *engine.PendingWire) { p.Req.TS = -5 }), "request timestamp -5"},
		{"out-queue request past MaxCycles", addOut(func(_ *hdr, r *event.Request) { r.TS = 1 << 62 }), "request timestamp"},
		{"message kind 7", addIn(func(m *event.Msg) { m.Kind = 7 }), "invalid message kind"},
		{"message coherence state 9", addIn(func(m *event.Msg) { m.NewState = 9 }), "invalid coherence state"},
		{"message timestamp past MaxCycles", addIn(func(m *event.Msg) { m.TS = 1 << 62 }), "message timestamp"},
		{"message timestamp negative", addIn(func(m *event.Msg) { m.TS = -1 }), "message timestamp"},
		{"GQ arrival past the counter", addGQ(func(h *hdr, p *engine.PendingWire) { p.Arr = h.Arrival + 1 }), "arrival stamp"},
		{"GQ arrival zero", addGQ(func(_ *hdr, p *engine.PendingWire) { p.Arr = 0 }), "arrival stamp 0"},
		{"GQ arrival repeated", func(h *hdr, _ inQ, _ outQ) {
			h.Arrival++
			p := engine.PendingWire{Req: req(h), Arr: h.Arrival}
			h.GQ = append(h.GQ, p, p)
		}, "not unique"},
		{"RNG draws 1<<40", func(h *hdr, _ inQ, _ outQ) { h.RNGDraws = 1 << 40 }, "RNG draw count"},
		{"core cycles past global time", func(h *hdr, _ inQ, _ outQ) { h.Meter.CoreCycles = 1 << 40 }, "core cycles"},
		{"negative core cycles", func(h *hdr, _ inQ, _ outQ) { h.Meter.CoreCycles = -1 }, "core cycles"},
		{"global time past MaxCycles", func(h *hdr, _ inQ, _ outQ) { h.Global = 1 << 62 }, "global time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkForgedResume(t, editRun(t, blob, tc.mutate), tc.want, nil)
		})
	}
}

// editStatusMap decodes a container, passes the status map's wire form
// through mutate, and encodes the container again.
func editStatusMap(t *testing.T, blob []byte, mutate func(*statusMapWire)) []byte {
	t.Helper()
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	state, err := engine.RewriteComponent(snap.Engine, hostileSpec.Cores, "uncore", func(wire []byte) ([]byte, error) {
		var u uncoreWire
		if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&u); err != nil {
			return nil, err
		}
		var m statusMapWire
		if err := gob.NewDecoder(bytes.NewReader(u.Smap)).Decode(&m); err != nil {
			return nil, err
		}
		if len(m.Lines) < 2 {
			t.Fatalf("the status map tracks %d lines at the boundary; the cases need 2", len(m.Lines))
		}
		mutate(&m)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
			return nil, err
		}
		u.Smap = buf.Bytes()
		buf = bytes.Buffer{}
		err := gob.NewEncoder(&buf).Encode(&u)
		return buf.Bytes(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := durable.EncodeSnapshot(snap.Spec, state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeRejectsHostileStatusMap forges SLKSNAP1 payloads whose cache
// status map names a line twice, records a state outside MESI, or is
// shaped for another core count. The flat map indexes each line once and
// the manager indexes its state vectors by core, so Resume and POST
// /v1/resume must both fail naming the defect. The unedited payload must
// still resume to the uninterrupted run's results.
func TestResumeRejectsHostileStatusMap(t *testing.T) {
	blob, want := exportAtFirstBoundary(t)
	cases := []struct {
		name   string
		mutate func(*statusMapWire)
		want   string
	}{
		{"unedited", func(*statusMapWire) {}, ""},
		{"line named twice", func(m *statusMapWire) { m.Lines[1].Addr = m.Lines[0].Addr }, "twice"},
		{"state 4", func(m *statusMapWire) { m.Lines[1].States[0] = coherence.Modified + 1 }, "not MESI"},
		{"three cores", func(m *statusMapWire) {
			m.NumCores = 3
			for i := range m.Lines {
				m.Lines[i].States = append(m.Lines[i].States, coherence.Invalid)
			}
		}, "status map"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkForgedResume(t, editStatusMap(t, blob, tc.mutate), tc.want, &want)
		})
	}
}

// controllerWire, lockWire and barrierWire mirror internal/syncctl's
// wire format.
type controllerWire struct {
	NumCores int
	Locks    []lockWire
	Barriers []barrierWire

	Acquires, Releases, Contended uint64
	BarrierEpisodes               uint64
}

type lockWire struct {
	Addr       uint64
	Owner      int
	ReleasedAt int64
}

type barrierWire struct {
	ID         int64
	Arrived    int
	Generation uint64
	ReleasedAt int64
	Waiting    []int
}

// pageWire mirrors one page of internal/mem's wire format; pageNumber
// is the same page with its words left out, which gob reads as zeros.
type (
	pageWire struct {
		PN    uint64
		Words [mem.PageWords]uint64
	}
	pageNumber struct{ PN uint64 }
)

// editComponent decodes a container, passes the named component's wire
// form, decoded into a value of type W, through mutate, and encodes the
// container again.
func editComponent[W any](t *testing.T, blob []byte, name string, mutate func(*W) any) []byte {
	t.Helper()
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	state, err := engine.RewriteComponent(snap.Engine, hostileSpec.Cores, name, func(wire []byte) ([]byte, error) {
		var w W
		if err := gob.NewDecoder(bytes.NewReader(wire)).Decode(&w); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(mutate(&w))
		return buf.Bytes(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := durable.EncodeSnapshot(snap.Spec, state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeRejectsHostileSyncAndMemory forges SLKSNAP1 payloads whose
// sync controller or memory image breaks what the lock-free tables rely
// on: a controller for another core count, a lock owner or barrier
// waiter naming a core the machine lacks (the controller indexes its
// per-core slots by them), a waiter listed twice or at two barriers (a
// core records one last arrival), an arrival count that does not match
// the waiters, and a memory image naming a page twice or holding more
// than mem.MaxPages pages (checked before the decoder allocates a page). Both engine.Resume and POST /v1/resume must fail
// naming the defect. A well-formed lock and barrier added to the
// controller must still resume, so each rejection is the edit's doing.
func TestResumeRejectsHostileSyncAndMemory(t *testing.T) {
	blob, want := exportAtFirstBoundary(t)
	ctl := func(edit func(w *controllerWire)) func(*controllerWire) any {
		return func(w *controllerWire) any { edit(w); return w }
	}
	lock := func(owner int) func(w *controllerWire) {
		return func(w *controllerWire) {
			w.Locks = append(w.Locks, lockWire{Addr: 1 << 40, Owner: owner, ReleasedAt: 3})
		}
	}
	barrier := func(arrived int, waiting ...int) func(w *controllerWire) {
		return func(w *controllerWire) {
			w.Barriers = append(w.Barriers, barrierWire{ID: 1 << 40, Arrived: arrived, Generation: 2, ReleasedAt: 5, Waiting: waiting})
		}
	}
	syncCases := []struct {
		name string
		edit func(*controllerWire)
		want string
	}{
		{"unedited", func(*controllerWire) {}, ""},
		{"valid lock and barrier", func(w *controllerWire) { lock(1)(w); barrier(0)(w) }, ""},
		{"three cores", func(w *controllerWire) { w.NumCores = 3 }, "controller for 3 cores"},
		{"lock owned by core 2", lock(2), "held by core 2"},
		{"lock owned by core -2", lock(-2), "held by core -2"},
		{"lock named twice", func(w *controllerWire) { lock(0)(w); lock(-1)(w) }, "named twice"},
		{"waiter 5", barrier(1, 5), "waiter 5 outside"},
		{"waiter -1", barrier(1, -1), "waiter -1 outside"},
		{"waiter listed twice", barrier(2, 0, 0), "waiting twice"},
		{"waiter at two barriers", func(w *controllerWire) {
			barrier(1, 0)(w)
			w.Barriers = append(w.Barriers, barrierWire{ID: 1 << 41, Arrived: 1, Waiting: []int{0}})
		}, "waiting twice"},
		{"arrived without waiters", barrier(1), "1 arrived with 0 waiting"},
		{"every core waiting", barrier(2, 0, 1), "2 arrived with 2 waiting"},
	}
	for _, tc := range syncCases {
		t.Run("sync/"+tc.name, func(t *testing.T) {
			wantRes := &want
			if tc.name != "unedited" {
				wantRes = nil
			}
			checkForgedResume(t, editComponent(t, blob, "sync", ctl(tc.edit)), tc.want, wantRes)
		})
	}

	t.Run("memory/unedited", func(t *testing.T) {
		forged := editComponent(t, blob, "memory", func(p *[]pageWire) any { return *p })
		checkForgedResume(t, forged, "", &want)
	})
	t.Run("memory/page named twice", func(t *testing.T) {
		forged := editComponent(t, blob, "memory", func(p *[]pageWire) any {
			if len(*p) < 2 {
				t.Fatalf("the image holds %d pages at the boundary; the case needs 2", len(*p))
			}
			(*p)[1].PN = (*p)[0].PN
			return *p
		})
		checkForgedResume(t, forged, "named twice", nil)
	})
	t.Run("memory/over MaxPages", func(t *testing.T) {
		forged := editComponent(t, blob, "memory", func(*[]pageNumber) any {
			pages := make([]pageNumber, mem.MaxPages+1)
			for i := range pages {
				pages[i].PN = uint64(i)
			}
			return pages
		})
		checkForgedResume(t, forged, "more than", nil)
	})
}

// TestResumeRejectsHostileP2PAndBus forges SLKSNAP1 payloads whose
// Lax-P2P gate state or bus reservations break what the run relies on:
// per-core slices of another length, a partner outside [-1, cores) or
// equal to its own core (the gate indexes the retired mask and the cores
// by it), a negative next sync point, and reservation lists that are
// unsorted, longer than the bus's window or past MaxCycles (the
// reservation search binary-searches them and adds occupancies to their
// starts). Both engine.Resume and POST /v1/resume must fail naming the
// defect; each unedited payload must still resume to the uninterrupted
// run's results.
func TestResumeRejectsHostileP2PAndBus(t *testing.T) {
	p2pBlob, p2pWant := exportSpecAtFirstBoundary(t, p2pSpec)
	type (
		hdr  = engine.RunHeader
		inQ  = [][]event.Msg
		outQ = [][]event.Request
	)
	p2pCases := []struct {
		name string
		edit func(h *hdr)
		want string
	}{
		{"unedited", func(*hdr) {}, ""},
		{"partner 2", func(h *hdr) { h.P2PPartner[0] = 2 }, "partner 2"},
		{"partner -2", func(h *hdr) { h.P2PPartner[1] = -2 }, "partner -2"},
		{"partner is itself", func(h *hdr) { h.P2PPartner[1] = 1 }, "partner 1"},
		{"negative next sync point", func(h *hdr) { h.P2PNext[0] = -1 }, "sync point -1"},
		{"short partner slice", func(h *hdr) { h.P2PPartner = h.P2PPartner[:1] }, "Lax-P2P state"},
		{"long blocked slice", func(h *hdr) { h.P2PBlocked = append(h.P2PBlocked, true) }, "Lax-P2P state"},
	}
	for _, tc := range p2pCases {
		t.Run("p2p/"+tc.name, func(t *testing.T) {
			var wantRes *slacksim.Results
			if tc.want == "" {
				wantRes = &p2pWant
			}
			forged := editRun(t, p2pBlob, func(h *hdr, _ inQ, _ outQ) { tc.edit(h) })
			checkForgedResume(t, forged, tc.want, wantRes)
		})
	}
	t.Run("p2p/state on a bounded-slack run", func(t *testing.T) {
		blob, _ := exportAtFirstBoundary(t)
		forged := editRun(t, blob, func(h *hdr, _ inQ, _ outQ) {
			h.P2PNext, h.P2PPartner, h.P2PBlocked = []int64{100, 100}, []int{-1, -1}, []bool{false, false}
		})
		checkForgedResume(t, forged, "Lax-P2P state", nil)
	})

	blob, want := exportAtFirstBoundary(t)
	busCases := []struct {
		name string
		edit func(w *busWire)
		want string
	}{
		{"unedited", func(*busWire) {}, ""},
		{"unsorted request reservations", func(w *busWire) {
			if len(w.ReqRes) == 0 || w.ReqRes[len(w.ReqRes)-1] == 0 {
				t.Fatalf("the request bus holds %v at the boundary; the case needs a reservation past 0", w.ReqRes)
			}
			w.ReqRes = append(w.ReqRes, 0)
		}, "not sorted"},
		{"response reservations over the window", func(w *busWire) {
			w.RespRes = w.RespRes[:0]
			for i := int64(0); i <= 128; i++ {
				w.RespRes = append(w.RespRes, i)
			}
		}, "more than"},
		{"reservation past MaxCycles", func(w *busWire) { w.RespRes = append(w.RespRes, 1<<62) }, "outside"},
		{"negative reservation", func(w *busWire) { w.ReqRes = append([]int64{-3}, w.ReqRes...) }, "outside"},
	}
	for _, tc := range busCases {
		t.Run("bus/"+tc.name, func(t *testing.T) {
			var wantRes *slacksim.Results
			if tc.want == "" {
				wantRes = &want
			}
			forged := editComponent(t, blob, "uncore", func(u *uncoreWire) any {
				var w busWire
				if err := gob.NewDecoder(bytes.NewReader(u.Bus)).Decode(&w); err != nil {
					t.Fatal(err)
				}
				tc.edit(&w)
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
					t.Fatal(err)
				}
				u.Bus = buf.Bytes()
				return u
			})
			checkForgedResume(t, forged, tc.want, wantRes)
		})
	}
}

// TestResumeFastForwardIsInterruptible forges a payload whose pacing
// counters are mutually consistent but large: 1<<33 RNG draws pass the
// bound that 1<<31 core cycles by global time 1<<30 allow, and replaying
// them takes minutes. Resume must still stop soon after Interrupt is set.
func TestResumeFastForwardIsInterruptible(t *testing.T) {
	blob, _ := exportAtFirstBoundary(t)
	forged := editRun(t, blob, func(h *engine.RunHeader, _ [][]event.Msg, _ [][]event.Request) {
		h.Global, h.Meter.CoreCycles, h.RNGDraws = 1<<30, 1<<31, 1<<33
	})
	snap, err := durable.DecodeSnapshot(forged)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := snap.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	cfg.Interrupt = &stop
	sim, err := slacksim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, func() { stop.Store(true) })
	start := time.Now()
	if _, err := sim.Resume(snap.Engine); !errors.Is(err, slacksim.ErrInterrupted) {
		t.Fatalf("Resume: err = %v, want ErrInterrupted", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Resume took %v to honor the interrupt", d)
	}
}
