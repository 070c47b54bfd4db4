package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slacksim/internal/adaptive"
	"slacksim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestGoldenCCCycles pins the gold-standard (cycle-by-cycle) results of
// every kernel on the paper's 8-core target at host seed 1. The
// deterministic host is bit-reproducible for a fixed seed (and for the
// barrier-only kernels across seeds), so these exact values guard the
// whole stack — ISA semantics, pipeline timing, MESI
// transitions, bus/L2 latencies, barrier/lock visibility — against
// accidental behavioural change. An intentional model change must update
// this table (and revalidate EXPERIMENTS.md).
func TestGoldenCCCycles(t *testing.T) {
	golden := []struct {
		workload  string
		cycles    int64
		committed uint64
	}{
		{"barnes", 9245, 34576},
		{"fft", 7220, 41192},
		{"lu", 7337, 16505},
		{"water", 13346, 24160},
		{"ocean", 2698, 12456},
	}
	for _, g := range golden {
		g := g
		t.Run(g.workload, func(t *testing.T) {
			w, err := workload.ByName(g.workload, 1)
			if err != nil {
				t.Fatal(err)
			}
			m := newTestMachine(t, w, 8)
			res := MustRun(m, RunConfig{Scheme: CycleByCycle(), Seed: 1})
			if res.Cycles != g.cycles || res.Committed != g.committed {
				t.Errorf("CC result moved: %d cycles / %d insts, golden %d / %d",
					res.Cycles, res.Committed, g.cycles, g.committed)
			}
			if v, ok := w.(workload.Verifier); ok {
				if err := v.Verify(m.Memory()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// goldenRun is one row of the Results digest table.
type goldenRun struct {
	name     string
	workload string
	cfg      RunConfig
	parallel bool
}

// goldenRuns is the digest grid: the four SPLASH-2 kernels at scale 1 on
// the 8-core target under every scheme on the deterministic host, one
// speculative run (s16, checkpoint every 250 cycles, rollback) per
// kernel, and cc on the parallel host for the two race-free kernels.
func goldenRuns() []goldenRun {
	schemes := []struct {
		name   string
		scheme Scheme
	}{
		{"cc", CycleByCycle()},
		{"s16", BoundedSlack(16)},
		{"su", UnboundedSlack()},
		{"adaptive", AdaptiveSlack(adaptive.DefaultConfig())},
		{"q100", QuantumScheme(100)},
		{"p2p100", LaxP2PScheme(100, 100)},
	}
	var runs []goldenRun
	for _, k := range []string{"fft", "lu", "barnes", "water"} {
		for _, s := range schemes {
			runs = append(runs, goldenRun{name: k + "/" + s.name, workload: k,
				cfg: RunConfig{Scheme: s.scheme, Seed: 1}})
		}
		runs = append(runs, goldenRun{name: k + "/s16-ck250-rb", workload: k,
			cfg: RunConfig{Scheme: BoundedSlack(16), Seed: 1, CheckpointInterval: 250, Rollback: true}})
	}
	for _, k := range []string{"fft", "lu"} {
		runs = append(runs, goldenRun{name: k + "/cc-par", workload: k,
			cfg: RunConfig{Scheme: CycleByCycle()}, parallel: true})
	}
	return runs
}

// resultsDigest is the SHA-256 of a run's canonical Results JSON: every
// field that describes the simulated machine, none that describes the
// host (see canonical).
func resultsDigest(t *testing.T, res Results) string {
	t.Helper()
	blob, err := json.Marshal(canonical(res))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestGoldenResultDigests pins whole Results, not just cycles and
// commits, against testdata/results_digests.golden: per-core counters,
// violation counts, events served, checkpoint and rollback accounting,
// adaptive bounds, synchronization traffic. A host-side optimization of
// the core or the drivers must leave every digest unchanged; an
// intentional model change regenerates the file with
// `go test -run GoldenResultDigests -update` and says why.
func TestGoldenResultDigests(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenRuns() {
		w, err := workload.ByName(g.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := newTestMachine(t, w, 8)
		run := Run
		if g.parallel {
			run = RunParallel
		}
		res, err := run(m, g.cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", resultsDigest(t, res), g.name)
	}
	got := b.String()

	path := filepath.Join("testdata", "results_digests.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("digest grid has %d rows, golden file has %d:\n--- got ---\n%s--- want ---\n%s",
			len(gotLines)-1, len(wantLines)-1, got, want)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("Results moved:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}
