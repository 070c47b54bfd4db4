package core

// Predictor is a bimodal (2-bit saturating counter) branch direction
// predictor. Branch targets in this ISA are static, so no BTB is needed:
// a fetched branch's target is known at fetch time and only the direction
// can be mispredicted.
type Predictor struct {
	counters []uint8
	mask     int

	// Lookups and Mispredicts count predictor traffic (Mispredicts is
	// incremented by the pipeline at resolve time).
	Lookups, Mispredicts uint64
}

// NewPredictor returns a predictor with entries counters (a power of two),
// initialized to weakly-not-taken.
func NewPredictor(entries int) *Predictor {
	return &Predictor{counters: make([]uint8, entries), mask: entries - 1}
}

// Predict returns the predicted direction for the branch at instruction
// index pc.
func (p *Predictor) Predict(pc int) bool {
	p.Lookups++
	return p.counters[pc&p.mask] >= 2
}

// Update trains the counter for pc with the actual direction.
func (p *Predictor) Update(pc int, taken bool) {
	c := &p.counters[pc&p.mask]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Snapshot deep-copies the predictor.
func (p *Predictor) Snapshot() *Predictor {
	return &Predictor{
		counters:    append([]uint8(nil), p.counters...),
		mask:        p.mask,
		Lookups:     p.Lookups,
		Mispredicts: p.Mispredicts,
	}
}

// SnapshotInto deep-copies the predictor into dst, reusing dst's counter
// table — the pooled-snapshot-graph variant of Snapshot.
func (p *Predictor) SnapshotInto(dst *Predictor) {
	dst.Restore(p)
}

// Reset returns the predictor to its freshly-constructed state (all
// counters weakly-not-taken, stats zeroed). Used when a pooled machine is
// recycled for a new run.
func (p *Predictor) Reset() {
	clear(p.counters)
	p.Lookups, p.Mispredicts = 0, 0
}

// Restore overwrites the predictor from a snapshot.
func (p *Predictor) Restore(snap *Predictor) {
	copy(p.counters, snap.counters)
	p.mask = snap.mask
	p.Lookups, p.Mispredicts = snap.Lookups, snap.Mispredicts
}

// Equal reports whether two predictors hold identical counters and stats.
func (p *Predictor) Equal(o *Predictor) bool {
	if p.mask != o.mask || p.Lookups != o.Lookups || p.Mispredicts != o.Mispredicts {
		return false
	}
	for i := range p.counters {
		if p.counters[i] != o.counters[i] {
			return false
		}
	}
	return true
}
