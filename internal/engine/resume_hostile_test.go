package engine_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"slacksim"
	"slacksim/client"
	"slacksim/internal/coherence"
	"slacksim/internal/core"
	"slacksim/internal/durable"
	"slacksim/internal/engine"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/recframe"
	"slacksim/internal/service/server"
	"slacksim/internal/spec"
	"slacksim/internal/syncctl"
	"slacksim/internal/violation"
	"slacksim/internal/wire"
)

// hostileSpec is a real run whose first checkpoint boundary catches core 0
// with instructions in flight.
var hostileSpec = spec.Spec{Workload: "fft", Scheme: "s8", Cores: 2, Seed: 1, CheckpointInterval: 400}

// p2pSpec is hostileSpec under Lax-P2P, whose run state carries each
// core's next sync point and partner.
var p2pSpec = spec.Spec{Workload: "fft", Scheme: "p2p100", Cores: 2, Seed: 1, CheckpointInterval: 400}

// adaptiveSpec is hostileSpec under adaptive slack, whose run state
// carries the controller.
var adaptiveSpec = spec.Spec{Workload: "fft", Scheme: "adaptive", Cores: 2, Seed: 1, CheckpointInterval: 400}

// exportAtFirstBoundary returns the SLKSNAP2 container of hostileSpec
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

// forge decodes a container, passes its run state through edit, and
// encodes the container again with the real codec.
func forge(t *testing.T, blob []byte, edit func(*engine.Forgery)) []byte {
	t.Helper()
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	state, err := engine.Forge(snap.Engine, snap.Spec.Cores, edit)
	if err != nil {
		t.Fatal(err)
	}
	out, err := durable.EncodeSnapshot(snap.Spec, state)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// field returns the value at path inside v (struct fields by name, slice
// and array elements by index, pointers followed), settable even where a
// name is unexported. A forgery needs it to break an invariant of decoded
// state that the owning package's API never lets a value break.
func field(v any, path ...any) reflect.Value {
	f := reflect.ValueOf(v)
	for _, p := range path {
		for f.Kind() == reflect.Pointer {
			f = f.Elem()
		}
		if name, ok := p.(string); ok {
			f = f.FieldByName(name)
		} else {
			f = f.Index(p.(int))
		}
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	return f
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

// TestResumeRejectsMalformedCoreSnapshot forges SLKSNAP2 payloads from a
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
		mutate func(s *core.Snapshot, get func(...any) int64, set func(int64, ...any))
		want   string
	}{
		{"unedited", func(*core.Snapshot, func(...any) int64, func(int64, ...any)) {}, ""},
		{"rob over ROBSize", func(s *core.Snapshot, get func(...any) int64, _ func(int64, ...any)) {
			rob, next := field(s, "rob"), get("nextSeq")
			long := reflect.MakeSlice(rob.Type(), robSize+1, robSize+1)
			for i := range robSize + 1 {
				long.Index(i).Set(rob.Index(0))
				field(long.Index(i).Addr().Interface(), "seq").SetInt(next - int64(robSize+1-i))
			}
			rob.Set(long)
		}, "ROBSize"},
		{"seq gap", func(_ *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			set(get("rob", 1, "seq")+1, "rob", 1, "seq")
		}, "seqs contiguous"},
		{"window short of nextSeq", func(_ *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			set(get("nextSeq")+1, "nextSeq")
		}, "ending at nextSeq-1"},
		{"nextSeq below window", func(s *core.Snapshot, _ func(...any) int64, set func(int64, ...any)) {
			set(int64(field(s, "rob").Len()-1), "nextSeq")
		}, "cannot end a window"},
		{"srcProd names itself", func(s *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			last := field(s, "rob").Len() - 1
			set(get("rob", last, "seq"), "rob", last, "srcProd", 0)
		}, "not older"},
		{"srcProd past the window", func(_ *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			set(get("nextSeq")+10, "rob", 0, "srcProd", 1)
		}, "not older"},
		{"mapTable past the window", func(_ *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			set(get("nextSeq"), "mapTable", 5)
		}, "mapTable"},
		{"mapTable names a committed seq", func(_ *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			set(get("rob", 0, "seq")-1, "mapTable", 5)
		}, "mapTable"},
		{"serializeSeq past the window", func(_ *core.Snapshot, get func(...any) int64, set func(int64, ...any)) {
			set(get("nextSeq")+3, "serializeSeq")
		}, "serializeSeq"},
		{"register out of range", func(s *core.Snapshot, _ func(...any) int64, _ func(int64, ...any)) {
			field(s, "rob", 0, "inst", "Dst").SetUint(200)
		}, "register out of range"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forged := forge(t, blob, func(f *engine.Forgery) {
				s := f.Cores[0]
				if n := field(s, "rob").Len(); n < 3 {
					t.Fatalf("core 0 has %d instructions in flight at the boundary; the cases need 3", n)
				}
				tc.mutate(s, func(path ...any) int64 { return field(s, path...).Int() },
					func(v int64, path ...any) { field(s, path...).SetInt(v) })
			})
			checkForgedResume(t, forged, tc.want, &want)
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

// TestResumeRejectsHostileQueuesAndPacing forges SLKSNAP2 payloads from a
// real one whose queues or pacing scalars break what Resume's restore and
// the manager rely on: requests naming a core the machine lacks (which
// used to panic the daemon with an index out of range), invalid bus or
// message kinds and coherence states, timestamps outside [0, MaxCycles],
// GQ arrival stamps that repeat or run past the arrival counter, and an
// RNG draw count, cycle count or global time the run's own counters
// cannot account for (a draw count of 1<<40 used to spin in the RNG
// fast-forward, uninterruptibly). Both engine.Resume and POST /v1/resume
// must fail naming the defect. A well-formed request added to an
// out-queue or the GQ must still resume, so each rejection is the edit's
// doing.
func TestResumeRejectsHostileQueuesAndPacing(t *testing.T) {
	blob, _ := exportAtFirstBoundary(t)
	req := func(f *engine.Forgery) event.Request {
		return event.Request{ID: 1 << 20, Core: 1, Kind: coherence.BusRd, LineAddr: 0x4000, TS: f.Global - 1}
	}
	addGQ := func(edit func(f *engine.Forgery, r *event.Request, arr *uint64)) func(*engine.Forgery) {
		return func(f *engine.Forgery) {
			f.Arrival++
			r, arr := req(f), f.Arrival
			edit(f, &r, &arr)
			f.AppendGQ(r, arr)
		}
	}
	addOut := func(edit func(r *event.Request)) func(*engine.Forgery) {
		return func(f *engine.Forgery) {
			r := req(f)
			edit(&r)
			f.OutQs[1] = append(f.OutQs[1], r)
		}
	}
	addIn := func(edit func(m *event.Msg)) func(*engine.Forgery) {
		return func(f *engine.Forgery) {
			m := event.Msg{Kind: event.MsgInval, LineAddr: 0x4000, NewState: coherence.Invalid, TS: f.Global}
			edit(&m)
			f.InQs[0] = append(f.InQs[0], m)
		}
	}
	type forgery = engine.Forgery
	cases := []struct {
		name   string
		mutate func(*forgery)
		want   string
	}{
		{"valid GQ request", addGQ(func(*forgery, *event.Request, *uint64) {}), ""},
		{"valid out-queue request", addOut(func(*event.Request) {}), ""},
		{"valid in-queue message", addIn(func(*event.Msg) {}), ""},
		{"out-queue request from core 99", addOut(func(r *event.Request) { r.Core = 99 }), "request from core 99"},
		{"out-queue request from another core", addOut(func(r *event.Request) { r.Core = 0 }), "request from core 0"},
		{"GQ request from a negative core", addGQ(func(_ *forgery, r *event.Request, _ *uint64) { r.Core = -1 }), "request from core -1"},
		{"GQ request of bus kind none", addGQ(func(_ *forgery, r *event.Request, _ *uint64) { r.Kind = coherence.BusNone }), "invalid bus kind"},
		{"out-queue request of bus kind 200", addOut(func(r *event.Request) { r.Kind = 200 }), "invalid bus kind"},
		{"GQ request timestamp negative", addGQ(func(_ *forgery, r *event.Request, _ *uint64) { r.TS = -5 }), "request timestamp -5"},
		{"out-queue request past MaxCycles", addOut(func(r *event.Request) { r.TS = 1 << 62 }), "request timestamp"},
		{"message kind 7", addIn(func(m *event.Msg) { m.Kind = 7 }), "invalid message kind"},
		{"message coherence state 9", addIn(func(m *event.Msg) { m.NewState = 9 }), "invalid coherence state"},
		{"message timestamp past MaxCycles", addIn(func(m *event.Msg) { m.TS = 1 << 62 }), "message timestamp"},
		{"message timestamp negative", addIn(func(m *event.Msg) { m.TS = -1 }), "message timestamp"},
		{"GQ arrival past the counter", addGQ(func(f *forgery, _ *event.Request, arr *uint64) { *arr = f.Arrival + 1 }), "arrival stamp"},
		{"GQ arrival zero", addGQ(func(_ *forgery, _ *event.Request, arr *uint64) { *arr = 0 }), "arrival stamp 0"},
		{"GQ arrival repeated", addGQ(func(f *forgery, r *event.Request, arr *uint64) { f.AppendGQ(*r, *arr) }), "not unique"},
		{"RNG draws 1<<40", func(f *forgery) { f.RNGDraws = 1 << 40 }, "RNG draw count"},
		{"core cycles past global time", func(f *forgery) { f.CoreCycles = 1 << 40 }, "core cycles"},
		{"negative core cycles", func(f *forgery) { f.CoreCycles = -1 }, "core cycles"},
		{"global time past MaxCycles", func(f *forgery) { f.Global = 1 << 62 }, "global time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkForgedResume(t, forge(t, blob, tc.mutate), tc.want, nil)
		})
	}
}

// TestResumeRejectsHostileStatusMap forges SLKSNAP2 payloads whose cache
// status map names a line twice, records a state outside MESI, or is
// shaped for another core count. The flat map indexes each line once and
// the manager indexes its state vectors by core, so Resume and POST
// /v1/resume must both fail naming the defect. The unedited payload must
// still resume to the uninterrupted run's results.
func TestResumeRejectsHostileStatusMap(t *testing.T) {
	blob, want := exportAtFirstBoundary(t)
	cases := []struct {
		name   string
		mutate func(m reflect.Value)
		want   string
	}{
		{"unedited", func(reflect.Value) {}, ""},
		{"line named twice", func(m reflect.Value) { field(m.Interface(), "keys", 1).Set(field(m.Interface(), "keys", 0)) }, "twice"},
		{"state 4", func(m reflect.Value) {
			field(m.Interface(), "states", field(m.Interface(), "numCores").Interface().(int)).SetUint(uint64(coherence.Modified + 1))
		}, "not MESI"},
		{"three cores", func(m reflect.Value) {
			states := field(m.Interface(), "states")
			wide := reflect.MakeSlice(states.Type(), 0, states.Len()/2*3)
			for i := 0; i < states.Len(); i += 2 {
				wide = reflect.Append(wide, states.Index(i), states.Index(i+1), reflect.Zero(states.Type().Elem()))
			}
			states.Set(wide)
			field(m.Interface(), "numCores").SetInt(3)
		}, "status map"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forged := forge(t, blob, func(f *engine.Forgery) {
				m := field(f.Uncore, "smap")
				if n := field(m.Interface(), "keys").Len(); n < 2 {
					t.Fatalf("the status map tracks %d lines at the boundary; the cases need 2", n)
				}
				tc.mutate(m)
			})
			checkForgedResume(t, forged, tc.want, &want)
		})
	}
}

// syncSection encodes a two-core controller from its parts, in the order
// syncctl writes them, for the rows that state what no controller holds:
// a lock is (address, owner plus one, release time plus one) and a
// barrier (ID, arrivals, generation, release time plus one, waiters...).
func syncSection(locks [][3]int64, barriers ...[]int64) []byte {
	w := new(wire.Writer)
	w.Int(2)
	wire.List(w, locks, func(l [3]int64) {
		w.Uvarint(uint64(l[0]))
		w.Varint(l[1])
		w.Varint(l[2])
	})
	wire.List(w, barriers, func(b []int64) {
		w.Varint(b[0])
		w.Varint(b[1])
		w.Uvarint(uint64(b[2]))
		w.Varint(b[3])
		wire.List(w, b[4:], w.Varint)
	})
	for range 2 * 4 {
		w.Uvarint(0)
	}
	return w.Bytes()
}

// TestResumeRejectsHostileSyncAndMemory forges SLKSNAP2 payloads whose
// sync controller or memory image breaks what the lock-free tables rely
// on: a controller for another core count, a lock owner or barrier
// waiter naming a core the machine lacks (the controller indexes its
// per-core slots by them), a waiter listed twice or at two barriers (a
// core records one last arrival), an arrival count that does not match
// the waiters, and a memory image naming a page twice or holding more
// than mem.MaxPages pages (checked before the decoder allocates a page).
// Both engine.Resume and POST /v1/resume must fail naming the defect. A
// well-formed lock and barrier added to the controller must still
// resume, so each rejection is the edit's doing.
func TestResumeRejectsHostileSyncAndMemory(t *testing.T) {
	blob, want := exportAtFirstBoundary(t)
	lock := func(owner int64) [3]int64 { return [3]int64{1 << 40, owner + 1, 4} }
	section := func(b []byte) func(f *engine.Forgery) {
		return func(f *engine.Forgery) { f.Sections["sync"] = b }
	}
	syncCases := []struct {
		name string
		edit func(*engine.Forgery)
		want string
	}{
		{"unedited", func(*engine.Forgery) {}, ""},
		{"valid lock and barrier", func(f *engine.Forgery) {
			if !f.Sync.TryLock(1<<40, 1, f.Global) {
				t.Fatal("the forged lock is already held")
			}
			f.Sync.BarrierArrive(1<<41, 0, f.Global)
			f.Sync.BarrierArrive(1<<41, 1, f.Global)
		}, ""},
		{"three cores", section(engine.Section(syncctl.New(3).Encode)), "controller for 3 cores"},
		{"lock owned by core 2", section(syncSection([][3]int64{lock(2)})), "held by core 2"},
		{"lock owned by core -2", section(syncSection([][3]int64{lock(-2)})), "held by core -2"},
		{"lock named twice", section(syncSection([][3]int64{lock(0), lock(-1)})), "named twice"},
		{"waiter 5", section(syncSection(nil, []int64{1 << 40, 1, 2, 6, 5})), "waiter 5 outside"},
		{"waiter -1", section(syncSection(nil, []int64{1 << 40, 1, 2, 6, -1})), "waiter -1 outside"},
		{"waiter listed twice", section(syncSection(nil, []int64{1 << 40, 2, 2, 6, 0, 0})), "waiting twice"},
		{"waiter at two barriers", section(syncSection(nil, []int64{1 << 40, 1, 2, 6, 0}, []int64{1 << 41, 1, 0, 0, 0})), "waiting twice"},
		{"arrived without waiters", section(syncSection(nil, []int64{1 << 40, 1, 2, 6})), "1 arrived with 0 waiting"},
		{"every core waiting", section(syncSection(nil, []int64{1 << 40, 2, 2, 6, 0, 1})), "2 arrived with 2 waiting"},
	}
	for _, tc := range syncCases {
		t.Run("sync/"+tc.name, func(t *testing.T) {
			wantRes := &want
			if tc.name != "unedited" {
				wantRes = nil
			}
			checkForgedResume(t, forge(t, blob, tc.edit), tc.want, wantRes)
		})
	}

	t.Run("memory/unedited", func(t *testing.T) {
		checkForgedResume(t, forge(t, blob, func(*engine.Forgery) {}), "", &want)
	})
	t.Run("memory/page named twice", func(t *testing.T) {
		forged := forge(t, blob, func(f *engine.Forgery) {
			// Page 0x40000 of the dense range, named again in the map
			// that holds the pages above it.
			f.Memory.Write(0x40000<<12, 7)
			sparse := field(f.Memory, "sparse")
			sparse.SetMapIndex(reflect.ValueOf(uint64(0x40000)), reflect.New(sparse.Type().Elem().Elem()))
		})
		checkForgedResume(t, forged, "named twice", nil)
	})
	t.Run("memory/over MaxPages", func(t *testing.T) {
		// No image that large fits a test; the page count alone is a
		// section the decoder must refuse before it allocates a page.
		forged := forge(t, blob, func(f *engine.Forgery) {
			w := new(wire.Writer)
			w.Uvarint(mem.MaxPages + 1)
			f.Sections["memory"] = w.Bytes()
		})
		checkForgedResume(t, forged, "more than", nil)
	})
}

// TestResumeRejectsHostileP2PAndBus forges SLKSNAP2 payloads whose
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
	type forgery = engine.Forgery
	p2pCases := []struct {
		name string
		edit func(f *forgery)
		want string
	}{
		{"unedited", func(*forgery) {}, ""},
		{"partner 2", func(f *forgery) { f.P2PPartner[0] = 2 }, "partner 2"},
		{"partner -2", func(f *forgery) { f.P2PPartner[1] = -2 }, "partner -2"},
		{"partner is itself", func(f *forgery) { f.P2PPartner[1] = 1 }, "partner 1"},
		{"negative next sync point", func(f *forgery) { f.P2PNext[0] = -1 }, "sync point -1"},
		{"short partner slice", func(f *forgery) { f.P2PPartner = f.P2PPartner[:1] }, "Lax-P2P state"},
		{"long blocked slice", func(f *forgery) { f.P2PBlocked = append(f.P2PBlocked, true) }, "Lax-P2P state"},
	}
	for _, tc := range p2pCases {
		t.Run("p2p/"+tc.name, func(t *testing.T) {
			var wantRes *slacksim.Results
			if tc.want == "" {
				wantRes = &p2pWant
			}
			checkForgedResume(t, forge(t, p2pBlob, tc.edit), tc.want, wantRes)
		})
	}
	t.Run("p2p/state on a bounded-slack run", func(t *testing.T) {
		blob, _ := exportAtFirstBoundary(t)
		forged := forge(t, blob, func(f *forgery) {
			f.P2PNext, f.P2PPartner, f.P2PBlocked = []int64{100, 100}, []int{-1, -1}, []bool{false, false}
		})
		checkForgedResume(t, forged, "Lax-P2P state", nil)
	})

	blob, want := exportAtFirstBoundary(t)
	busCases := []struct {
		name string
		edit func(req, resp reflect.Value)
		want string
	}{
		{"unedited", func(reflect.Value, reflect.Value) {}, ""},
		{"unsorted request reservations", func(req, _ reflect.Value) {
			if req.Len() == 0 || req.Index(req.Len()-1).Int() == 0 {
				t.Fatalf("the request bus holds %v at the boundary; the case needs a reservation past 0", req)
			}
			req.Set(reflect.Append(req, reflect.ValueOf(int64(0))))
		}, "not sorted"},
		{"response reservations over the window", func(_, resp reflect.Value) {
			resp.SetLen(0)
			for i := int64(0); i <= 128; i++ {
				resp.Set(reflect.Append(resp, reflect.ValueOf(i)))
			}
		}, "more than"},
		{"reservation past MaxCycles", func(_, resp reflect.Value) {
			resp.Set(reflect.Append(resp, reflect.ValueOf(int64(1<<62))))
		}, "outside"},
		{"negative reservation", func(req, _ reflect.Value) {
			req.Set(reflect.AppendSlice(reflect.ValueOf([]int64{-3}), req))
		}, "outside"},
	}
	for _, tc := range busCases {
		t.Run("bus/"+tc.name, func(t *testing.T) {
			var wantRes *slacksim.Results
			if tc.want == "" {
				wantRes = &want
			}
			forged := forge(t, blob, func(f *forgery) {
				tc.edit(field(f.Uncore, "bus", "reqRes"), field(f.Uncore, "bus", "respRes"))
			})
			checkForgedResume(t, forged, tc.want, wantRes)
		})
	}
}

// TestResumeRejectsHostileDetector forges SLKSNAP2 payloads whose
// violation detector tracks other interval lengths than the run (a
// length of 0 used to panic the daemon with an integer divide by zero in
// Detector.Record), selects other types, or records a first violation
// outside its interval or past global time. Both engine.Resume and POST
// /v1/resume must fail naming the defect.
func TestResumeRejectsHostileDetector(t *testing.T) {
	blob, want := exportAtFirstBoundary(t)
	cases := []struct {
		name string
		edit func(d *violation.Detector)
		want string
	}{
		{"unedited", func(*violation.Detector) {}, ""},
		{"interval of length 0", func(d *violation.Detector) {
			field(d, "intervals").Set(reflect.ValueOf([]*violation.IntervalStats{{Interval: 0}}))
		}, "interval lengths"},
		{"bus violations unselected", func(d *violation.Detector) { d.Select(violation.Map) }, "selected types"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantRes *slacksim.Results
			if tc.want == "" {
				wantRes = &want
			}
			checkForgedResume(t, forge(t, blob, func(f *engine.Forgery) { tc.edit(f.Detector) }), tc.want, wantRes)
		})
	}
}

// TestResumeRejectsHostileController forges an adaptive run's SLKSNAP2
// payload whose controller configuration Validate rejects, or that
// carries no controller at all. Both engine.Resume and POST /v1/resume
// must fail naming the defect; the unedited payload must resume to the
// uninterrupted run's results.
func TestResumeRejectsHostileController(t *testing.T) {
	blob, want := exportSpecAtFirstBoundary(t, adaptiveSpec)
	cases := []struct {
		name string
		edit func(f *engine.Forgery)
		want string
	}{
		{"unedited", func(*engine.Forgery) {}, ""},
		{"MinBound 0", func(f *engine.Forgery) { field(f.Controller, "cfg", "MinBound").SetInt(0) }, "MinBound"},
		{"no controller", func(f *engine.Forgery) { f.Controller = nil }, "no controller state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantRes *slacksim.Results
			if tc.want == "" {
				wantRes = &want
			}
			checkForgedResume(t, forge(t, blob, tc.edit), tc.want, wantRes)
		})
	}
}

// TestResumeRejectsSLKSNAP1 feeds a container of the retired gob format
// (hostileSpec exported at its first boundary by the last build that
// wrote SLKSNAP1) to every entry point. durable.DecodeSnapshot and POST
// /v1/resume must refuse it naming SLKSNAP1; Simulation.Resume, handed
// the whole container or the gob engine state inside it, must refuse it
// naming SLKSNAP2. None may panic.
func TestResumeRejectsSLKSNAP1(t *testing.T) {
	old, err := os.ReadFile("testdata/slksnap1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := durable.DecodeSnapshot(old); err == nil || !strings.Contains(err.Error(), "SLKSNAP1") {
		t.Fatalf("DecodeSnapshot: err = %v, want one naming SLKSNAP1", err)
	}

	var records [][]byte
	if _, err := recframe.Scan(bytes.NewReader(old[len("SLKSNAP1"):]), func(_ int64, p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil || len(records) != 2 {
		t.Fatalf("the fixture holds %d records (%v), want a header and the engine state", len(records), err)
	}
	cfg, err := hostileSpec.Config()
	if err != nil {
		t.Fatal(err)
	}
	for name, state := range map[string][]byte{"container": old, "gob engine state": records[1]} {
		sim, err := slacksim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Resume(state); err == nil || !strings.Contains(err.Error(), "SLKSNAP2") {
			t.Errorf("Simulation.Resume of the %s: err = %v, want one naming SLKSNAP2", name, err)
		}
	}

	hs := httptest.NewServer(server.New(server.Config{Workers: 1, QueueDepth: 4}).Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.New(hs.URL).Resume(ctx, old); err == nil || !strings.Contains(err.Error(), "SLKSNAP1") {
		t.Fatalf("POST /v1/resume: err = %v, want one naming SLKSNAP1", err)
	}
}

// TestResumeFastForwardIsInterruptible forges a payload whose pacing
// counters are mutually consistent but large: 1<<33 RNG draws pass the
// bound that 1<<31 core cycles by global time 1<<30 allow, and replaying
// them takes minutes. Resume must still stop soon after Interrupt is set.
func TestResumeFastForwardIsInterruptible(t *testing.T) {
	blob, _ := exportAtFirstBoundary(t)
	forged := forge(t, blob, func(f *engine.Forgery) {
		f.Global, f.CoreCycles, f.RNGDraws = 1<<30, 1<<31, 1<<33
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
