package uncore

import (
	"slacksim/internal/bus"
	"slacksim/internal/cache"
	"slacksim/internal/wire"
)

// Encode appends the snapshot for a run snapshot: the bus, the L2 and the
// status map, each in its own encoding, then the counters.
func (s *Snapshot) Encode(w *wire.Writer) {
	s.bus.Encode(w)
	s.l2.Encode(w)
	s.smap.Encode(w)
	w.Uvarint(s.served)
	w.Uvarint(s.invalidations)
}

// Decode reads a snapshot written by Encode into s.
func (s *Snapshot) Decode(r *wire.Reader) {
	*s = Snapshot{bus: new(bus.Bus), l2: new(cache.Cache), smap: new(cache.StatusMap)}
	s.bus.Decode(r)
	s.l2.Decode(r)
	s.smap.Decode(r)
	s.served, s.invalidations = r.Uvarint(), r.Uvarint()
}
