package bus

import "slacksim/internal/wire"

// Encode appends the bus, its two reservation windows first, for a run
// snapshot.
func (b *Bus) Encode(w *wire.Writer) {
	wire.List(w, b.reqRes, w.Varint)
	wire.List(w, b.respRes, w.Varint)
	w.Varint(b.monitor.MaxTS)
	w.Varint(b.ReqOccupancy)
	w.Varint(b.RespOccupancy)
	w.Uvarint(b.Grants)
	w.Uvarint(b.Conflicts)
	w.Uvarint(b.RespConflicts)
	w.Uvarint(b.Violations)
}

// Decode reads a bus written by Encode into b. A window longer than
// resWindow, or an occupancy that is not positive, fails the Reader;
// CheckReservations checks the starts.
func (b *Bus) Decode(r *wire.Reader) {
	*b = Bus{reqRes: wire.ReadList(r, "request reservations", resWindow, r.Varint),
		respRes: wire.ReadList(r, "response reservations", resWindow, r.Varint)}
	b.monitor.MaxTS = r.Varint()
	b.ReqOccupancy, b.RespOccupancy = r.Varint(), r.Varint()
	b.Grants, b.Conflicts, b.RespConflicts, b.Violations = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	if r.Err() == nil && (b.ReqOccupancy <= 0 || b.RespOccupancy <= 0) {
		r.Failf("bus: occupancies %d/%d must be positive", b.ReqOccupancy, b.RespOccupancy)
	}
}
