package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest element with at least p% of the
// samples at or below it. It never interpolates, so a reported latency is
// always one that a job actually had. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// because that is what the driver uses to judge run-to-run spread. Fewer
// than two samples yield the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// summary is a metric's distribution over repeated runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile range as a share of the median, the
// driver's steadiness measure; 0 when the median is 0.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// slice is a part of a timed phase that yields one sample of each
// throughput and latency metric: one pass of an engine workload, one
// window of a service workload's closed loop.
type slice struct {
	wall      float64 // seconds
	insts     uint64
	latencies []float64 // ms, one per job finished in the slice
}

// sliceMetrics reports each metric as the median over slices of the
// slice's own value, so that a hiccup of the host (a preempted thread, a
// page-cache flush) spoils one sample instead of shifting the result.
func sliceMetrics(slices []slice) map[string]float64 {
	var kips, rate, p50, p95 []float64
	for _, s := range slices {
		sorted := sortedCopy(s.latencies)
		kips = append(kips, float64(s.insts)/1e3/s.wall)
		rate = append(rate, float64(len(sorted))/s.wall)
		p50 = append(p50, percentile(sorted, 50))
		p95 = append(p95, percentile(sorted, 95))
	}
	return map[string]float64{
		"sim_kips":           median(kips),
		"jobs_per_s":         median(rate),
		"job_latency_ms_p50": median(p50),
		"job_latency_ms_p95": median(p95),
	}
}

// finished is one job of a closed-loop phase: when it finished, counted
// from the start of the phase, and how long it took.
type finished struct {
	at      float64 // seconds
	latency float64 // ms
	insts   uint64
}

// windows cuts a closed-loop phase into slices of the given length by
// finish time. The last, partial window is dropped, and so is a window in
// which nothing finished: it has no latency to report (on a real run that
// is a stall of a whole window, which the failing rate of its neighbours
// shows; on a smoke run under the race detector it is most windows). A
// phase with no usable window is one slice as long as the phase.
func windows(jobs []finished, length float64) []slice {
	var end float64
	for _, j := range jobs {
		end = max(end, j.at)
	}
	all := make([]slice, int(end/length))
	for _, j := range jobs {
		if w := int(j.at / length); w < len(all) {
			all[w].wall = length
			all[w].insts += j.insts
			all[w].latencies = append(all[w].latencies, j.latency)
		}
	}
	var out []slice
	for _, s := range all {
		if len(s.latencies) > 0 {
			out = append(out, s)
		}
	}
	if len(out) == 0 && len(jobs) > 0 {
		whole := slice{wall: end}
		for _, j := range jobs {
			whole.insts += j.insts
			whole.latencies = append(whole.latencies, j.latency)
		}
		out = []slice{whole}
	}
	return out
}
