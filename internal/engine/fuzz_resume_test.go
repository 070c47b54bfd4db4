package engine

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/workload"
)

// fuzzConfig is the run FuzzResume resumes into: two cores, a cycle cap
// that bounds every resumed run and its RNG fast-forward.
var fuzzConfig = RunConfig{Scheme: BoundedSlack(16), Seed: 3, CheckpointInterval: 128, Rollback: true, MaxCycles: 1 << 10}

// exportFirst runs cfg on a fresh two-core falseshare machine and returns
// its state exported at the first checkpoint boundary.
func exportFirst(tb testing.TB, cfg RunConfig) []byte {
	var req atomic.Bool
	req.Store(true)
	var state []byte
	cfg.SnapshotRequest = &req
	cfg.OnSnapshot = func(s []byte) { state = s }
	if _, err := Run(newTestMachine(tb, workload.NewFalseShare(32), 2), cfg); !errors.Is(err, ErrSnapshotted) {
		tb.Fatalf("run: %v, want ErrSnapshotted", err)
	}
	return state
}

// FuzzResume feeds arbitrary bytes to Resume as a two-core run's state.
// It must never panic, and a payload the decoder accepts must re-encode
// to exactly its bytes. The seeds are real exports under the fuzzed
// config and under the schemes that add a controller or Lax-P2P state.
func FuzzResume(f *testing.F) {
	for _, sch := range []Scheme{fuzzConfig.Scheme, AdaptiveSlack(adaptive.DefaultConfig()), LaxP2PScheme(100, 100)} {
		cfg := fuzzConfig
		cfg.Scheme = sch
		f.Add(exportFirst(f, cfg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := decodeRunState(data, 2, new(detRun)); err == nil {
			if enc := st.encode(); !bytes.Equal(enc, data) {
				t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(enc))
			}
		}
		Resume(newTestMachine(t, workload.NewFalseShare(32), 2), fuzzConfig, data)
	})
}
