package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10 x10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
	// A pass of four jobs: p50 is the second fastest, p95 the slowest.
	pass := []float64{51, 65, 111, 129}
	if p50, p95 := percentile(pass, 50), percentile(pass, 95); p50 != 65 || p95 != 129 {
		t.Errorf("four-job pass: p50=%v p95=%v, want 65 and 129", p50, p95)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: got %v", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 10.6, 9.7, 10.5}, 9.875, 10.425},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; math.Abs(s.spread()-want) > 1e-9 || s.N != 10 {
		t.Errorf("summary: spread %v (want %v), n %d", s.spread(), want, s.N)
	}
}

func TestWindowsDropThePartialLast(t *testing.T) {
	jobs := []finished{
		{at: 0.1, latency: 1, insts: 10}, {at: 0.9, latency: 3, insts: 10},
		{at: 1.2, latency: 5, insts: 20},
		{at: 2.05, latency: 100, insts: 99}, // in the partial third window
	}
	ws := windows(jobs, 1.0)
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	if len(ws[0].latencies) != 2 || ws[0].insts != 20 || len(ws[1].latencies) != 1 || ws[1].insts != 20 {
		t.Errorf("windows = %+v", ws)
	}
	m := sliceMetrics(ws)
	if m["jobs_per_s"] != 1.5 || m["job_latency_ms_p50"] != 3 || m["sim_kips"] != 0.02 {
		t.Errorf("slice metrics = %v", m)
	}
}
