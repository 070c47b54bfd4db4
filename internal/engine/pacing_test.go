package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/sampling"
	"slacksim/internal/workload"
)

// pickChecker is a pickHook that compares the deterministic driver's
// carried pacing state with a rescan at every pick: the observation must
// equal observe(), and the runnable list must equal the cores below the
// pick's cap, in core order.
type pickChecker struct {
	picks int
	err   error
}

func (pc *pickChecker) check(r *detRun, o observation, ml int64) {
	pc.picks++
	if pc.err != nil {
		return
	}
	if want := r.observe(); o != want {
		pc.err = fmt.Errorf("pick %d at global %d: carried observation %+v, rescan %+v", pc.picks, r.global, o, want)
		return
	}
	cap := min(ml, r.global+r.cfg.HostDriftCap)
	var want []int
	for i, c := range r.m.cores {
		if !r.retired[i] && c.Now() < cap {
			want = append(want, i)
		}
	}
	if r.cfg.Scheme.Kind == LaxP2P && r.m.NumCores() > 1 {
		// The gate is evaluated during the rebuild, so the list may be
		// shorter than the cores below the cap, but never longer.
		for _, i := range r.runnable {
			if !slices.Contains(want, i) {
				pc.err = fmt.Errorf("pick %d at global %d: lax-p2p list %v holds core %d, not below cap %d", pc.picks, r.global, r.runnable, i, cap)
				return
			}
		}
		return
	}
	if !slices.Equal(r.runnable, want) {
		pc.err = fmt.Errorf("pick %d at global %d (cap %d): runnable %v, rescan %v", pc.picks, r.global, cap, r.runnable, want)
	}
}

// checkPacing runs fn with the checker installed as pickHook.
func checkPacing(t *testing.T, fn func()) int {
	t.Helper()
	pc := &pickChecker{}
	pickHook = pc.check
	defer func() { pickHook = nil }()
	fn()
	if pc.err != nil {
		t.Fatal(pc.err)
	}
	if pc.picks == 0 {
		t.Fatal("the hook saw no pick")
	}
	return pc.picks
}

// TestPacingMatchesRescan checks the deterministic host's incremental
// pacing against a full rescan at every pick, under every scheme, with
// checkpoints and rollback, with interval sampling, and across a resume.
// Each run must also reproduce its Results with the checker installed.
func TestPacingMatchesRescan(t *testing.T) {
	fft := func() Workload { return workload.NewFFT(64) }
	water := func() Workload { return workload.NewWater(8, 1) }
	cases := []struct {
		name  string
		w     func() Workload
		cores int
		cfg   RunConfig
		want  func(Results) error
	}{
		{"cc", fft, 8, RunConfig{Scheme: CycleByCycle(), Seed: 1}, nil},
		{"s16", water, 8, RunConfig{Scheme: BoundedSlack(16), Seed: 2}, nil},
		{"su", fft, 8, RunConfig{Scheme: UnboundedSlack(), Seed: 3}, nil},
		{"q100", water, 4, RunConfig{Scheme: QuantumScheme(100), Seed: 4}, nil},
		{"p2p", fft, 8, RunConfig{Scheme: LaxP2PScheme(32, 64), Seed: 5}, nil},
		{"adaptive", water, 8, RunConfig{Scheme: AdaptiveSlack(adaptive.DefaultConfig()), Seed: 6}, nil},
		{"s16-ckpt-rollback", water, 8, RunConfig{Scheme: BoundedSlack(16), Seed: 7, CheckpointInterval: 250, Rollback: true},
			func(res Results) error {
				if res.Rollbacks == 0 {
					return fmt.Errorf("no rollback")
				}
				return nil
			}},
		{"sampled", fft, 8, RunConfig{Scheme: CycleByCycle(), Seed: 8, Sampling: &sampling.Plan{IntervalInsts: 2000, DetailEvery: 3}},
			func(res Results) error {
				if res.Sampling == nil {
					return fmt.Errorf("no sampling estimate")
				}
				return nil
			}},
		{"max-instructions", water, 4, RunConfig{Scheme: BoundedSlack(8), Seed: 9, MaxInstructions: 5000}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := MustRun(newTestMachine(t, tc.w(), tc.cores), tc.cfg)
			var got Results
			picks := checkPacing(t, func() { got = MustRun(newTestMachine(t, tc.w(), tc.cores), tc.cfg) })
			if !reflect.DeepEqual(stripWall(plain), stripWall(got)) {
				t.Fatalf("checked run diverged:\n got %+v\nwant %+v", got, plain)
			}
			if tc.want != nil {
				if err := tc.want(got); err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d picks checked", picks)
		})
	}
	t.Run("resumed", func(t *testing.T) {
		checkPacing(t, func() {
			resumeRoundTrip(t, func() workload.Workload { return workload.NewFalseShare(128) }, 4,
				RunConfig{Scheme: BoundedSlack(64), Seed: 7, CheckpointInterval: 256, Rollback: true})
		})
	})
}
