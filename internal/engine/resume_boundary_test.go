package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"slacksim"
	"slacksim/internal/spec"
)

// TestResumeAtEveryBoundary exports a short run at every checkpoint
// boundary and resumes each export to completion on the deterministic
// host: every resumed run must produce the uninterrupted run's Results
// (WallClock aside), for two kernels under every slack scheme, with and
// without rollback. The first export comes from the run itself; each
// later one from the run resumed at the boundary before it, so the chain
// also checks that migration composes.
func TestResumeAtEveryBoundary(t *testing.T) {
	const interval = 2500
	for _, w := range []string{"fft", "barnes"} {
		for _, scheme := range []string{"cc", "s16", "su", "adaptive", "p2p100"} {
			for _, rollback := range []bool{false, true} {
				sp := spec.Spec{Workload: w, Scheme: scheme, Cores: 2, Seed: 1, CheckpointInterval: interval, Rollback: rollback}
				t.Run(fmt.Sprintf("%s/%s/rollback=%v", w, scheme, rollback), func(t *testing.T) {
					cfg, err := sp.Config()
					if err != nil {
						t.Fatal(err)
					}
					want := canonicalResults(slacksim.MustRun(cfg))
					// next continues the run from state (from the start
					// when nil) and returns its export at the next
					// boundary, or nil when it ran to completion.
					next := func(state []byte) []byte {
						var req atomic.Bool
						req.Store(true)
						var out []byte
						armed := cfg
						armed.SnapshotRequest = &req
						armed.OnSnapshot = func(s []byte) { out = s }
						sim, err := slacksim.New(armed)
						if err != nil {
							t.Fatal(err)
						}
						if state == nil {
							_, err = sim.Run()
						} else {
							_, err = sim.Resume(state)
						}
						if err != nil && !errors.Is(err, slacksim.ErrSnapshotted) {
							t.Fatal(err)
						}
						return out
					}
					exports := 0
					for state := next(nil); state != nil; state = next(state) {
						exports++
						sim, err := slacksim.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sim.Resume(state)
						if err != nil {
							t.Fatalf("resume at boundary %d: %v", exports, err)
						}
						if !reflect.DeepEqual(canonicalResults(got), want) {
							t.Fatalf("resumed at boundary %d:\n got %+v\nwant %+v", exports, canonicalResults(got), want)
						}
					}
					if exports < int(want.Cycles/interval)-1 {
						t.Fatalf("%d exports from a run of %d cycles at interval %d", exports, want.Cycles, interval)
					}
				})
			}
		}
	}
}
