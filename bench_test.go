package slacksim

import (
	"fmt"
	"sync"
	"testing"

	"slacksim/internal/experiments"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation section. Each prints its rows once (so `go test -bench .`
// reproduces the evaluation) and reports headline numbers as benchmark
// metrics. Absolute values are host- and scale-dependent; the shapes —
// who wins, by what factor, where crossovers fall — are the reproduction
// targets and are also asserted by the tests in internal/experiments.

// benchCfg is the shared scaled-down experiment configuration: the
// paper's 8-core CMP, all four kernels, checkpoint intervals scaled to
// the run length as the paper's 5k..100k are to 100M-instruction runs.
func benchCfg() experiments.Config {
	cfg := experiments.Default()
	return cfg
}

var printOnce sync.Map

func printFirst(b *testing.B, key, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", key, text)
	}
}

// BenchmarkFig3BusViolations regenerates Figure 3(a): bus violation rate
// versus slack bound for every workload. Expected shape: the rate grows
// with the bound and plateaus at the unbounded-slack rate.
func BenchmarkFig3BusViolations(b *testing.B) {
	cfg := benchCfg()
	var series []experiments.Fig3Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Figure 3", experiments.FormatFig3(series))
	last := series[0].Points
	b.ReportMetric(100*last[len(last)-1].BusRate, "bus-viol-%-unbounded")
}

// BenchmarkFig3MapViolations reports Figure 3(b)'s headline: map
// violations stay at least an order of magnitude below bus violations and
// are negligible at small bounds.
func BenchmarkFig3MapViolations(b *testing.B) {
	cfg := benchCfg()
	cfg.Workloads = []string{"water", "barnes"} // the lock-based kernels
	var series []experiments.Fig3Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Figure 3(b) lock kernels", experiments.FormatFig3(series))
	pts := series[0].Points
	b.ReportMetric(100*pts[len(pts)-1].MapRate, "map-viol-%-unbounded")
	b.ReportMetric(100*pts[0].MapRate, "map-viol-%-smallest-bound")
}

// BenchmarkFig4AdaptiveTradeoff regenerates Figure 4: simulation cost
// versus violation rate for CC, bounded slack S1-S9, and adaptive slack
// with 0% and 5% violation bands across twelve target rates. Expected
// shape: adaptive always beats CC but costs more than bounded slack at
// the same violation rate; wider bands are cheaper.
func BenchmarkFig4AdaptiveTradeoff(b *testing.B) {
	cfg := benchCfg()
	var r experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig4(cfg, "water")
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Figure 4 (water)", experiments.FormatFig4(r))
	cc := r.Baseline[0].HostWork
	worstAdaptive := 0.0
	for _, p := range append(r.AdaptiveBand0, r.AdaptiveBand5...) {
		if p.HostWork > worstAdaptive {
			worstAdaptive = p.HostWork
		}
	}
	b.ReportMetric(cc/worstAdaptive, "min-adaptive-speedup-vs-CC")
}

// BenchmarkTable2SimulationTime regenerates Table 2: cost of CC, SU, the
// base adaptive scheme, and adaptive plus checkpointing at four interval
// lengths. Expected shape: SU 2-3x cheaper than CC; adaptive in between;
// the densest checkpointing the most expensive, approaching plain
// adaptive as the interval grows.
func BenchmarkTable2SimulationTime(b *testing.B) {
	cfg := benchCfg()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Table 2", experiments.FormatTable2(cfg, rows))
	var speedup float64
	for _, r := range rows {
		speedup += r.CC / r.SU
	}
	b.ReportMetric(speedup/float64(len(rows)), "mean-SU-speedup-vs-CC")
}

// BenchmarkTable3ViolatingIntervals regenerates Table 3: the fraction of
// checkpoint intervals with at least one violation under the base
// adaptive scheme. Expected shape: F grows with the interval length.
func BenchmarkTable3ViolatingIntervals(b *testing.B) {
	cfg := benchCfg()
	var rows []experiments.Table34Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3And4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Tables 3 and 4", experiments.FormatTable3And4(cfg, rows))
	reps := rows[0].Reports
	b.ReportMetric(reps[len(reps)-1].FractionViolating, "F-largest-interval")
}

// BenchmarkTable4FirstViolationDistance regenerates Table 4: the mean
// distance from an interval's start to its first violation — the rollback
// distance Dr of the analytical model. Expected shape: Dr grows
// sublinearly with the interval.
func BenchmarkTable4FirstViolationDistance(b *testing.B) {
	cfg := benchCfg()
	var rows []experiments.Table34Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3And4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reps := rows[0].Reports
	printFirst(b, "Table 4 (see Tables 3 and 4 above)", "")
	b.ReportMetric(reps[len(reps)-1].MeanFirstDistance, "Dr-largest-interval-cycles")
}

// BenchmarkTable5SpeculativeModel regenerates Table 5: the analytical
// speculative-simulation cost from measured Tcc/Tcpt/F/Dr — and, beyond
// the paper, compares it against a real speculative run with rollback.
// Expected shape: with violating fractions this high, speculation does
// not beat cycle-by-cycle (the paper's negative result).
func BenchmarkTable5SpeculativeModel(b *testing.B) {
	cfg := benchCfg()
	cfg.Workloads = []string{"barnes", "water"}
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table5(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Table 5", experiments.FormatTable5(rows))
	r := rows[len(rows)-1]
	b.ReportMetric(r.Modeled/r.CC, "modeled-Ts-over-Tcc")
	b.ReportMetric(r.Measured/r.CC, "measured-Ts-over-Tcc")
}

// BenchmarkAblationStudies runs the design-choice ablations DESIGN.md
// calls out: AIMD vs AIAD adaptation, violation-band width, and selective
// (map-only) rollback.
func BenchmarkAblationStudies(b *testing.B) {
	cfg := benchCfg()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	printFirst(b, "Ablations", experiments.FormatAblations(rows))
	b.ReportMetric(float64(len(rows)), "ablation-rows")
}
