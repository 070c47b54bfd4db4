package violation

import (
	"fmt"
	"slices"

	"slacksim/internal/wire"
)

// Bounds on a decoded detector, beyond the bytes it must be backed by:
// its tracked interval lengths and the violating intervals of each.
const maxIntervals, maxFirsts = 64, 1 << 24

// Encode appends the detector for a run snapshot: counts and the
// selected set, then each tracked interval length with its (interval
// index, first-violation time) pairs in index order.
func (d *Detector) Encode(w *wire.Writer) {
	for t := range d.counts {
		w.Uvarint(d.counts[t])
		w.Uvarint(d.windowCounts[t])
		w.Bool(d.selected[t])
	}
	w.Uvarint(uint64(len(d.intervals)))
	for _, is := range d.intervals {
		w.Varint(is.Interval)
		idxs := make([]int64, 0, len(is.firstTS))
		for idx := range is.firstTS {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		wire.List(w, idxs, func(idx int64) {
			w.Varint(idx)
			w.Varint(is.firstTS[idx])
		})
	}
}

// Decode reads a detector written by Encode into d. Pairs out of index
// order, or naming an index twice, fail the Reader; CheckSnapshot judges
// the rest.
func (d *Detector) Decode(r *wire.Reader) {
	*d = Detector{}
	for t := range d.counts {
		d.counts[t], d.windowCounts[t], d.selected[t] = r.Uvarint(), r.Uvarint(), r.Bool()
	}
	d.intervals = make([]*IntervalStats, r.Count("tracked intervals", maxIntervals))
	for i := range d.intervals {
		is := &IntervalStats{Interval: r.Varint(), firstTS: make(map[int64]int64)}
		for k, n, prev := 0, r.Count("violating intervals", maxFirsts), int64(0); k < n && r.Err() == nil; k++ {
			idx, ts := r.Varint(), r.Varint()
			if k > 0 && idx <= prev {
				r.Failf("violation: interval index %d out of order or named twice", idx)
			}
			is.firstTS[idx], prev = ts, idx
		}
		d.intervals[i] = is
	}
}

// CheckSnapshot reports why s cannot be restored into d, the detector of
// a run at global time global, or nil. Record divides by every tracked
// interval length and gates on the selected set, so s must track d's
// lengths and select d's types; each first violation must lie in its own
// interval, at or before global time.
func (d *Detector) CheckSnapshot(s *Detector, global int64) error {
	if s.selected != d.selected || !slices.EqualFunc(s.intervals, d.intervals,
		func(a, b *IntervalStats) bool { return a.Interval == b.Interval }) {
		return fmt.Errorf("violation snapshot: tracked interval lengths or selected types differ from the run's")
	}
	for _, is := range s.intervals {
		for idx, ts := range is.firstTS {
			if ts < 0 || ts > global || ts/is.Interval != idx {
				return fmt.Errorf("violation snapshot: first violation at %d recorded for interval %d of length %d at global time %d",
					ts, idx, is.Interval, global)
			}
		}
	}
	return nil
}
