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
	"slacksim/internal/core"
	"slacksim/internal/durable"
	"slacksim/internal/engine"
	"slacksim/internal/isa"
	"slacksim/internal/service/server"
	"slacksim/internal/spec"
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

// hostileSpec is a real run whose first checkpoint boundary catches core 0
// with instructions in flight.
var hostileSpec = spec.Spec{Workload: "fft", Scheme: "s8", Cores: 2, Seed: 1, CheckpointInterval: 400}

// exportAtFirstBoundary returns the SLKSNAP1 container of hostileSpec
// snapshotted at its first boundary, and the uninterrupted run's results.
func exportAtFirstBoundary(t *testing.T) ([]byte, slacksim.Results) {
	t.Helper()
	cfg, err := hostileSpec.Config()
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
	blob, err := durable.EncodeSnapshot(hostileSpec, state)
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

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A server per case: the unedited run's result would otherwise
			// be served from the cache to every later forgery of its spec.
			hs := httptest.NewServer(server.New(server.Config{Workers: 1, QueueDepth: 4}).Handler())
			defer hs.Close()
			c := client.New(hs.URL)

			forged := editCore0(t, blob, tc.mutate)
			got, err := resume(t, forged)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("engine.Resume of the unedited payload: %v", err)
			case tc.want == "" && !reflect.DeepEqual(canonicalResults(got), canonicalResults(want)):
				t.Fatalf("unedited payload resumed to different results:\n got %+v\nwant %+v", got, want)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("engine.Resume: err = %v, want one mentioning %q", err, tc.want)
			}

			j, err := c.Resume(ctx, forged)
			if err != nil {
				t.Fatalf("POST /v1/resume: %v", err)
			}
			fin, err := c.Wait(ctx, j.ID, 2*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if fin.State != "done" {
					t.Fatalf("POST /v1/resume of the unedited payload: %s (%s)", fin.State, fin.Error)
				}
				return
			}
			if fin.State != "failed" || !strings.Contains(fin.Error, tc.want) {
				t.Fatalf("POST /v1/resume: job %s (%s), want failed mentioning %q", fin.State, fin.Error, tc.want)
			}
		})
	}
}
