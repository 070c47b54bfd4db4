// Package violation implements detection and accounting of simulation
// violations, the paper's central accuracy-control instrument.
//
// A simulation violation occurs when a resource is accessed in a different
// order in the simulation than it would be in the target system: the
// detection mechanism attaches a monitoring variable to the resource that
// records the largest timestamp of any operation applied so far, and flags
// any operation whose timestamp is smaller (Section 3 of the paper).
//
// The Detector aggregates per-type counts, the cumulative violation rate
// used by adaptive slack, and the per-checkpoint-interval statistics
// (fraction of intervals with at least one violation, distance of the
// first violation inside a violating interval) that feed the speculative
// slack analytical model (Tables 3 and 4).
package violation

import "fmt"

// Type classifies a violation by the resource it hit.
type Type uint8

// Violation types tracked by the simulator. Bus violations are simulation
// state violations on the request-bus grant order; Map violations are
// simulated-system-state violations on the global cache status map.
// Workload violations cannot occur in this simulator (synchronization is
// executed reliably), but the type exists so tests can assert the count
// stays zero.
const (
	Bus Type = iota
	Map
	Workload
	numTypes
)

// String names the violation type.
func (t Type) String() string {
	switch t {
	case Bus:
		return "bus"
	case Map:
		return "map"
	case Workload:
		return "workload"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Types lists all tracked violation types.
func Types() []Type { return []Type{Bus, Map, Workload} }

// Monitor is a monitoring variable attached to one simulation resource.
// Observe applies an operation timestamp and reports whether it was
// retrograde.
type Monitor struct {
	// MaxTS is the largest timestamp seen (-1 when untouched).
	MaxTS int64
}

// NewMonitor returns an untouched monitor.
func NewMonitor() Monitor { return Monitor{MaxTS: -1} }

// Observe applies ts and reports a violation when ts is smaller than the
// largest timestamp already observed.
func (m *Monitor) Observe(ts int64) bool {
	if ts < m.MaxTS {
		return true
	}
	m.MaxTS = ts
	return false
}

// IntervalStats accumulates Table 3/4 statistics for one checkpoint
// interval length.
type IntervalStats struct {
	// Interval is the checkpoint interval length in simulated cycles.
	Interval int64
	// firstTS maps interval index -> timestamp of first violation in it.
	firstTS map[int64]int64
}

// Detector counts violations and derives rates and interval statistics.
type Detector struct {
	counts [numTypes]uint64
	// windowCounts supports windowed-rate controllers (ablation study);
	// the paper's controller uses the cumulative rate.
	windowCounts [numTypes]uint64

	intervals []*IntervalStats

	// Selected marks the violation types that "count" for control and
	// rollback decisions; the paper notes users may ignore some types
	// (e.g. track only map violations). All types are always counted;
	// Selected only gates SelectedCount and the Selected* helpers.
	selected [numTypes]bool
}

// NewDetector returns a detector tracking all types, with every type
// selected.
func NewDetector() *Detector {
	d := &Detector{}
	for i := range d.selected {
		d.selected[i] = true
	}
	return d
}

// Select restricts the "selected" set used for control decisions.
func (d *Detector) Select(types ...Type) {
	for i := range d.selected {
		d.selected[i] = false
	}
	for _, t := range types {
		d.selected[t] = true
	}
}

// Selected reports whether t is in the selected set.
func (d *Detector) Selected(t Type) bool { return d.selected[t] }

// TrackIntervals enables Table 3/4 accounting for the given checkpoint
// interval lengths (in simulated cycles).
func (d *Detector) TrackIntervals(lengths ...int64) {
	for _, l := range lengths {
		if l <= 0 {
			panic("violation: interval length must be positive")
		}
		// Revive a parked IntervalStats (Reset truncates the slice but
		// keeps the entries within capacity) instead of allocating a
		// fresh map on every run of a pooled machine.
		n := len(d.intervals)
		if n < cap(d.intervals) && d.intervals[:n+1][n] != nil {
			is := d.intervals[:n+1][n]
			is.Interval = l
			clear(is.firstTS)
			d.intervals = d.intervals[:n+1]
			continue
		}
		d.intervals = append(d.intervals, &IntervalStats{
			Interval: l, firstTS: make(map[int64]int64),
		})
	}
}

// Record counts one violation of type t that occurred at simulated time ts.
func (d *Detector) Record(t Type, ts int64) {
	d.counts[t]++
	d.windowCounts[t]++
	if !d.selected[t] {
		return
	}
	for _, is := range d.intervals {
		idx := ts / is.Interval
		if cur, ok := is.firstTS[idx]; !ok || ts < cur {
			is.firstTS[idx] = ts
		}
	}
}

// Count returns the cumulative count for type t.
func (d *Detector) Count(t Type) uint64 { return d.counts[t] }

// Total returns the cumulative count across all types.
func (d *Detector) Total() uint64 {
	var n uint64
	for _, c := range d.counts {
		n += c
	}
	return n
}

// SelectedCount returns the cumulative count across selected types.
func (d *Detector) SelectedCount() uint64 {
	var n uint64
	for t, c := range d.counts {
		if d.selected[t] {
			n += c
		}
	}
	return n
}

// Rate returns the cumulative violation rate over cycles simulated cycles:
// total violations of selected types divided by cycles.
func (d *Detector) Rate(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(d.SelectedCount()) / float64(cycles)
}

// RateOf returns the cumulative rate for a single type.
func (d *Detector) RateOf(t Type, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(d.counts[t]) / float64(cycles)
}

// WindowCountAndReset returns the selected-type violations recorded since
// the previous call and resets the window.
func (d *Detector) WindowCountAndReset() uint64 {
	var n uint64
	for t := range d.windowCounts {
		if d.selected[t] {
			n += d.windowCounts[t]
		}
		d.windowCounts[t] = 0
	}
	return n
}

// IntervalReport is the Table 3/4 summary for one interval length. The
// json tags are part of the stable Results serialization contract (see
// engine.Results).
type IntervalReport struct {
	Interval int64 `json:"interval"`
	// TotalIntervals is the number of whole intervals covered by the run.
	TotalIntervals int64 `json:"total_intervals"`
	// ViolatingIntervals is how many contained at least one selected
	// violation.
	ViolatingIntervals int64 `json:"violating_intervals"`
	// FractionViolating is ViolatingIntervals / TotalIntervals (Table 3's F).
	FractionViolating float64 `json:"fraction_violating"`
	// MeanFirstDistance is the mean distance, in cycles, from the start of
	// a violating interval to its first violation (Table 4's Dr).
	MeanFirstDistance float64 `json:"mean_first_distance"`
}

// Intervals produces the report for every tracked interval length, given
// the final simulated time.
func (d *Detector) Intervals(endTime int64) []IntervalReport {
	var out []IntervalReport
	for _, is := range d.intervals {
		total := endTime / is.Interval
		if total == 0 && endTime > 0 {
			total = 1
		}
		// Accumulate in an integer: the summands are exact and map
		// iteration order then cannot perturb the total, whereas float
		// addition is order-sensitive in its low bits.
		var violating int64
		var distSum int64
		for _, first := range is.firstTS {
			violating++
			distSum += first % is.Interval
		}
		rep := IntervalReport{Interval: is.Interval, TotalIntervals: total}
		if violating > total {
			violating = total
		}
		rep.ViolatingIntervals = violating
		if total > 0 {
			rep.FractionViolating = float64(violating) / float64(total)
		}
		if violating > 0 {
			rep.MeanFirstDistance = float64(distSum) / float64(len(is.firstTS))
		}
		out = append(out, rep)
	}
	return out
}

// Snapshot deep-copies the detector.
func (d *Detector) Snapshot() *Detector {
	n := &Detector{}
	d.CopyInto(n)
	return n
}

// CopyInto deep-copies the detector's state into dst, reusing dst's
// IntervalStats entries and their maps when the tracked interval lengths
// match — the per-boundary variant of Snapshot used by checkpoints,
// allocation-free in the steady state.
//
//slacksim:hotpath
func (d *Detector) CopyInto(dst *Detector) {
	dst.counts = d.counts
	dst.windowCounts = d.windowCounts
	dst.selected = d.selected
	match := len(dst.intervals) == len(d.intervals)
	if match {
		for i, is := range d.intervals {
			if dst.intervals[i].Interval != is.Interval {
				match = false
				break
			}
		}
	}
	if !match {
		dst.intervals = dst.intervals[:0]
		for _, is := range d.intervals {
			dst.intervals = append(dst.intervals, // interval-shape change only (first copy or reconfiguration); steady-state boundaries hit the match path
				&IntervalStats{Interval: is.Interval, firstTS: make(map[int64]int64, len(is.firstTS))}) //lint:allow hotpathalloc -- same shape-change path as above
		}
	}
	for i, is := range d.intervals {
		di := dst.intervals[i]
		clear(di.firstTS)
		for k, v := range is.firstTS {
			di.firstTS[k] = v
		}
	}
}

// Restore overwrites the detector from a snapshot.
func (d *Detector) Restore(snap *Detector) {
	snap.CopyInto(d)
}

// Reset returns the detector to its freshly-constructed state: counts
// zeroed, every type selected, interval tracking dropped (the entries are
// parked within the slice capacity so a later TrackIntervals reuses
// them). Used when a pooled machine is recycled for a new run.
func (d *Detector) Reset() {
	d.counts = [numTypes]uint64{}
	d.windowCounts = [numTypes]uint64{}
	for i := range d.selected {
		d.selected[i] = true
	}
	for _, is := range d.intervals {
		clear(is.firstTS)
	}
	d.intervals = d.intervals[:0]
}
