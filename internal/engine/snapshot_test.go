package engine

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/workload"
)

func stripWall(r Results) Results {
	r.WallClock = 0
	return r
}

// resumeRoundTrip runs cfg to completion, reruns it with a snapshot
// request armed mid-run, resumes the exported state on a fresh machine,
// and requires the resumed Results to be identical to the uninterrupted
// baseline (wall clock aside).
func resumeRoundTrip(t *testing.T, mkW func() workload.Workload, cores int, cfg RunConfig) {
	t.Helper()
	base := MustRun(newTestMachine(t, mkW(), cores), cfg)

	// Arm the snapshot request once the run is past the midpoint, so the
	// export captures genuinely mid-flight state.
	var req atomic.Bool
	var blob []byte
	mid := base.Cycles / 2
	icfg := cfg
	icfg.SnapshotRequest = &req
	icfg.OnSnapshot = func(state []byte) { blob = append([]byte(nil), state...) }
	icfg.ProgressEvery = 1
	icfg.OnProgress = func(p Progress) {
		if p.Cycles >= mid {
			req.Store(true)
		}
	}
	_, err := Run(newTestMachine(t, mkW(), cores), icfg)
	if !errors.Is(err, ErrSnapshotted) {
		t.Fatalf("interrupted run: err = %v, want ErrSnapshotted", err)
	}
	if len(blob) == 0 {
		t.Fatal("OnSnapshot delivered no state")
	}

	got, err := Resume(newTestMachine(t, mkW(), cores), cfg, blob)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !reflect.DeepEqual(stripWall(base), stripWall(got)) {
		t.Errorf("resumed results diverged from uninterrupted run:\nbase: %+v\ngot:  %+v",
			stripWall(base), stripWall(got))
	}
}

func TestResumeBounded(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewFalseShare(128) }, 4,
		RunConfig{Scheme: BoundedSlack(16), Seed: 42, CheckpointInterval: 256})
}

func TestResumeBoundedRollback(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewFalseShare(128) }, 4,
		RunConfig{Scheme: BoundedSlack(64), Seed: 7, CheckpointInterval: 256, Rollback: true})
}

// TestResumeDeepCheckpoint keeps configs that still set the ignored
// DeepCheckpoint field working: the run must round-trip exactly and match
// the same config without the field.
func TestResumeDeepCheckpoint(t *testing.T) {
	mkW := func() workload.Workload { return workload.NewFalseShare(128) }
	cfg := RunConfig{Scheme: BoundedSlack(64), Seed: 7, CheckpointInterval: 256, Rollback: true}
	deep := cfg
	deep.DeepCheckpoint = true
	resumeRoundTrip(t, mkW, 4, deep)

	plain := MustRun(newTestMachine(t, mkW(), 4), cfg)
	got := MustRun(newTestMachine(t, mkW(), 4), deep)
	if !reflect.DeepEqual(stripWall(plain), stripWall(got)) {
		t.Errorf("DeepCheckpoint changed the results:\nwithout: %+v\nwith:    %+v",
			stripWall(plain), stripWall(got))
	}
}

func TestResumeAdaptive(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewFFT(64) }, 4,
		RunConfig{Scheme: AdaptiveSlack(adaptive.DefaultConfig()), Seed: 3,
			CheckpointInterval: 512})
}

func TestResumeCycleByCycle(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewFalseShare(64) }, 2,
		RunConfig{Scheme: CycleByCycle(), Seed: 1, CheckpointInterval: 128})
}

func TestResumeQuantum(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewFalseShare(128) }, 4,
		RunConfig{Scheme: QuantumScheme(64), Seed: 11, CheckpointInterval: 256})
}

func TestResumeLaxP2P(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewFalseShare(128) }, 4,
		RunConfig{Scheme: LaxP2PScheme(32, 64), Seed: 5, CheckpointInterval: 256})
}

func TestResumeIntervalTracking(t *testing.T) {
	resumeRoundTrip(t, func() workload.Workload { return workload.NewWater(8, 1) }, 4,
		RunConfig{Scheme: BoundedSlack(32), Seed: 9, CheckpointInterval: 256,
			TrackIntervals: []int64{100, 1000}})
}

// TestResumeChained snapshots a run, resumes it, snapshots the resumed
// run again, and resumes that: migration must compose.
func TestResumeChained(t *testing.T) {
	mkW := func() workload.Workload { return workload.NewFalseShare(128) }
	cfg := RunConfig{Scheme: BoundedSlack(16), Seed: 42, CheckpointInterval: 256}
	base := MustRun(newTestMachine(t, mkW(), 4), cfg)

	snapshotPast := func(run func(RunConfig) (Results, error), after int64) []byte {
		t.Helper()
		var req atomic.Bool
		var blob []byte
		icfg := cfg
		icfg.SnapshotRequest = &req
		icfg.OnSnapshot = func(state []byte) { blob = append([]byte(nil), state...) }
		icfg.ProgressEvery = 1
		icfg.OnProgress = func(p Progress) {
			if p.Cycles >= after {
				req.Store(true)
			}
		}
		if _, err := run(icfg); !errors.Is(err, ErrSnapshotted) {
			t.Fatalf("err = %v, want ErrSnapshotted", err)
		}
		return blob
	}

	blob1 := snapshotPast(func(c RunConfig) (Results, error) {
		return Run(newTestMachine(t, mkW(), 4), c)
	}, base.Cycles/3)
	blob2 := snapshotPast(func(c RunConfig) (Results, error) {
		return Resume(newTestMachine(t, mkW(), 4), c, blob1)
	}, 2*base.Cycles/3)

	got, err := Resume(newTestMachine(t, mkW(), 4), cfg, blob2)
	if err != nil {
		t.Fatalf("final Resume: %v", err)
	}
	if !reflect.DeepEqual(stripWall(base), stripWall(got)) {
		t.Errorf("doubly-migrated run diverged:\nbase: %+v\ngot:  %+v",
			stripWall(base), stripWall(got))
	}
}

// TestResumeRejectsMismatch: a snapshot only resumes under the exact run
// configuration that produced it.
func TestResumeRejectsMismatch(t *testing.T) {
	mkW := func() workload.Workload { return workload.NewFalseShare(128) }
	cfg := RunConfig{Scheme: BoundedSlack(16), Seed: 42, CheckpointInterval: 256}

	var req atomic.Bool
	req.Store(true) // export at the first boundary
	var blob []byte
	icfg := cfg
	icfg.SnapshotRequest = &req
	icfg.OnSnapshot = func(state []byte) { blob = append([]byte(nil), state...) }
	if _, err := Run(newTestMachine(t, mkW(), 4), icfg); !errors.Is(err, ErrSnapshotted) {
		t.Fatalf("err = %v, want ErrSnapshotted", err)
	}

	cases := []struct {
		name string
		cfg  RunConfig
		m    *Machine
		blob []byte
	}{
		{"wrong seed", RunConfig{Scheme: BoundedSlack(16), Seed: 43, CheckpointInterval: 256},
			newTestMachine(t, mkW(), 4), blob},
		{"wrong scheme", RunConfig{Scheme: QuantumScheme(64), Seed: 42, CheckpointInterval: 256},
			newTestMachine(t, mkW(), 4), blob},
		{"wrong cores", cfg, newTestMachine(t, mkW(), 8), blob},
		{"truncated state", cfg, newTestMachine(t, mkW(), 4), blob[:len(blob)/2]},
		{"garbage state", cfg, newTestMachine(t, mkW(), 4), []byte("not a snapshot")},
	}
	for _, tc := range cases {
		if _, err := Resume(tc.m, tc.cfg, tc.blob); err == nil {
			t.Errorf("%s: Resume accepted a mismatched snapshot", tc.name)
		}
	}
}
