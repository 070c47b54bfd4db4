package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"slacksim/internal/adaptive"
	"slacksim/internal/workload"
)

// TestObservationMergeMatchesObserve is the property behind the parallel
// host's partition summaries: folding every core into one observation, as
// observe does, equals merging the observations of contiguous partitions,
// for every way to cut the cores into partitions (so every split and every
// worker count from 1 to n). The machines include retired cores, ties at
// the minimum, partitions whose cores have all retired, and a machine
// with every core retired (min -1).
func TestObservationMergeMatchesObserve(t *testing.T) {
	type clock struct {
		now       int64
		committed uint64
		retired   bool
	}
	rng := rand.New(rand.NewSource(1))
	var machines [][]clock
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 40; trial++ {
			cs := make([]clock, n)
			for i := range cs {
				// Few distinct clocks, so several cores tie at the minimum.
				cs[i] = clock{now: int64(rng.Intn(4)), committed: uint64(rng.Intn(100)), retired: rng.Intn(3) == 0}
			}
			switch trial {
			case 0: // every core retired
				for i := range cs {
					cs[i].retired = true
				}
			case 1: // the first half retired: a partition of retired cores
				for i := range cs[:(n+1)/2] {
					cs[i].retired = true
				}
			case 2: // no core retired
				for i := range cs {
					cs[i].retired = false
				}
			}
			machines = append(machines, cs)
		}
	}
	fold := func(cs []clock) observation {
		o := observation{min: -1}
		for _, c := range cs {
			o.add(c.now, c.committed, c.retired)
		}
		return o
	}
	cuts := 0
	for _, cs := range machines {
		want := fold(cs)
		n := len(cs)
		// Bit k of mask set: a partition boundary after core k.
		for mask := 0; mask < 1<<(n-1); mask++ {
			got := observation{min: -1}
			lo := 0
			for k := 0; k < n; k++ {
				if k == n-1 || mask&(1<<k) != 0 {
					got.merge(fold(cs[lo : k+1]))
					lo = k + 1
				}
			}
			if got != want {
				t.Fatalf("cores %+v cut by mask %b: merged %+v, observe %+v", cs, mask, got, want)
			}
			cuts++
		}
	}
	// The empty observation is merge's identity on either side.
	o := fold(machines[len(machines)-1])
	left, right := observation{min: -1}, o
	left.merge(o)
	right.merge(observation{min: -1})
	if left != o || right != o {
		t.Fatalf("empty observation is not an identity: %+v, %+v, want %+v", left, right, o)
	}
	t.Logf("%d machines, %d cuts checked", len(machines), cuts)
}

// TestArrivalSlotFitsOneLine keeps a worker's summary and round number
// within the one cache line the manager reads per worker.
func TestArrivalSlotFitsOneLine(t *testing.T) {
	var a arrival
	if used := unsafe.Offsetof(a.round) + unsafe.Sizeof(a.round); used > cacheLine {
		t.Fatalf("an arrival slot's summary and round take %d bytes, more than a %d-byte line", used, cacheLine)
	}
}

// roundChecker is a roundHook that compares the merged partition summary
// with a rescan of every core after every round: the observation must
// equal observe(), the parked count must equal the active cores at the
// wall, and pending must say whether any out-queue holds a request.
type roundChecker struct {
	rounds int
	err    error
}

func (rc *roundChecker) check(r *parRun, sum summary) {
	rc.rounds++
	if rc.err != nil {
		return
	}
	want := summary{obs: r.observe()}
	for i, c := range r.m.cores {
		if !r.retired[i] && c.Now() >= r.wall {
			want.parked++
		}
		if r.m.outQs[i].Len() > 0 {
			want.pending = true
		}
	}
	if sum != want {
		rc.err = fmt.Errorf("round %d (%d workers, wall %d): merged %+v, rescan %+v", rc.rounds, r.workers, r.wall, sum, want)
	}
}

// TestRoundsMatchRescan checks the parallel host's per-worker partition
// summaries against a full rescan after every round, under every scheme,
// with checkpoints and an instruction limit. Four-core rows run at the
// ambient worker count (CI varies GOMAXPROCS); eight-core rows pin two
// and three workers (even and uneven partitions). A checked cc run of fft
// must still equal the deterministic host's Results.
func TestRoundsMatchRescan(t *testing.T) {
	fft := func() Workload { return workload.NewFFT(64) }
	water := func() Workload { return workload.NewWater(8, 1) }
	cases := []struct {
		name       string
		w          func() Workload
		cores      int
		cfg        RunConfig
		gomaxprocs int
	}{
		{"cc", fft, 4, RunConfig{Scheme: CycleByCycle()}, 0},
		{"cc-8x2", fft, 8, RunConfig{Scheme: CycleByCycle()}, 2},
		{"cc-8x3", fft, 8, RunConfig{Scheme: CycleByCycle()}, 3},
		{"cc-water", water, 4, RunConfig{Scheme: CycleByCycle()}, 0},
		{"s16", water, 4, RunConfig{Scheme: BoundedSlack(16)}, 0},
		{"s16-8x3", water, 8, RunConfig{Scheme: BoundedSlack(16)}, 3},
		{"su", fft, 4, RunConfig{Scheme: UnboundedSlack()}, 0},
		{"q100", water, 4, RunConfig{Scheme: QuantumScheme(100)}, 0},
		{"p2p", fft, 4, RunConfig{Scheme: LaxP2PScheme(32, 64), Seed: 5}, 0},
		{"adaptive", water, 4, RunConfig{Scheme: AdaptiveSlack(adaptive.DefaultConfig())}, 0},
		{"s16-ckpt", fft, 4, RunConfig{Scheme: BoundedSlack(16), CheckpointInterval: 250}, 0},
		{"max-instructions", water, 4, RunConfig{Scheme: BoundedSlack(8), MaxInstructions: 5000}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gomaxprocs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.gomaxprocs))
			}
			rc := &roundChecker{}
			roundHook = rc.check
			res, err := RunParallel(newTestMachine(t, tc.w(), tc.cores), tc.cfg)
			roundHook = nil
			if err != nil {
				t.Fatal(err)
			}
			if rc.err != nil {
				t.Fatal(rc.err)
			}
			if rc.rounds == 0 {
				t.Fatal("the hook saw no round")
			}
			if tc.cfg.Scheme.Kind == CC && tc.name != "cc-water" { // lock kernels may differ by a few cycles across hosts
				det := MustRun(newTestMachine(t, tc.w(), tc.cores), RunConfig{Scheme: CycleByCycle(), Seed: 1})
				if !reflect.DeepEqual(canonical(det), canonical(res)) {
					t.Fatalf("checked cc run diverged from the deterministic host:\n got %+v\nwant %+v", canonical(res), canonical(det))
				}
			}
			t.Logf("%d rounds checked", rc.rounds)
		})
	}
}
