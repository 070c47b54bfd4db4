// Package bus models the target CMP's split-transaction snooping
// interconnect: a request bus on which cores broadcast coherence requests
// (snooped by all L1s and the L2) and a response bus on which data replies
// propagate, as in the paper's Figure 2.
//
// Both buses are single-occupancy resources, so the critical latency of the
// target system is one cycle: two requests arriving in the same cycle
// conflict, and the order in which the simulation manager grants them can
// differ from target order whenever simulation slack is allowed. The bus
// therefore carries a monitoring variable on grant order; retrograde grants
// are the paper's "bus violations", by far the most frequent kind.
package bus

import "slacksim/internal/violation"

// Bus is the manager-side state of the request/response bus pair.
//
// Both buses are modeled as slot calendars: a transaction occupies the
// first free slot at or after its own timestamp. An eagerly-serviced slack
// simulation may therefore place a reservation *behind* an already-granted
// later one — that retrograde ordering is precisely a bus violation and is
// counted, but it does not artificially drag the late request's timing up
// to the run-ahead core's clock (a "busy-until" high-water mark would
// ratchet every laggard's timing forward and inflate simulated time).
type Bus struct {
	// reqRes and respRes hold the start cycles of recent reservations on
	// the request and response buses, sorted ascending and pruned to a
	// bounded window.
	reqRes  []int64
	respRes []int64

	monitor violation.Monitor

	// ReqOccupancy is how many cycles a request occupies the request bus.
	ReqOccupancy int64
	// RespOccupancy is how many cycles a data response occupies the
	// response bus (one line transfer).
	RespOccupancy int64

	// Grants counts request-bus grants.
	Grants uint64
	// Conflicts counts grants delayed by an earlier occupant.
	Conflicts uint64
	// RespConflicts counts response transfers delayed by an occupied bus.
	RespConflicts uint64
	// Violations counts retrograde grants (simulation state violations).
	Violations uint64
}

// resWindow bounds how many recent reservations are remembered per bus;
// older ones can no longer collide with new traffic in practice.
const resWindow = 128

// reserve places a transaction of the given occupancy at the first
// non-overlapping slot at or after ready in the reservation list, and
// returns the start cycle plus whether the transaction was delayed.
func reserve(res *[]int64, ready, occupancy int64) (start int64, delayed bool) {
	start = ready
	moved := true
	for moved {
		moved = false
		for _, s := range *res {
			if start < s+occupancy && s < start+occupancy {
				start = s + occupancy
				moved = true
			}
		}
	}
	// Insert sorted; prune the oldest beyond the window.
	r := *res
	i := len(r)
	for i > 0 && r[i-1] > start {
		i--
	}
	r = append(r, 0)
	copy(r[i+1:], r[i:])
	r[i] = start
	if len(r) > resWindow {
		r = r[1:]
	}
	*res = r
	return start, start != ready
}

// New returns an idle bus with the given occupancies (cycles per request
// and per response).
func New(reqOccupancy, respOccupancy int64) *Bus {
	if reqOccupancy <= 0 || respOccupancy <= 0 {
		panic("bus: occupancies must be positive")
	}
	return &Bus{
		monitor:       violation.NewMonitor(),
		ReqOccupancy:  reqOccupancy,
		RespOccupancy: respOccupancy,
	}
}

// Grant arbitrates the request bus for a request issued at simulated time
// ts. It returns the cycle at which the request actually occupies the bus
// and whether the grant was retrograde with respect to an earlier grant
// (a bus violation). Requests are granted in the order the manager
// services them — eagerly, within the slack window — which is exactly what
// makes violations possible.
func (b *Bus) Grant(ts int64) (grantTime int64, violated bool) {
	start, delayed := reserve(&b.reqRes, ts, b.ReqOccupancy)
	if delayed {
		b.Conflicts++
	}
	b.Grants++
	if b.monitor.Observe(ts) {
		b.Violations++
		violated = true
	}
	return start, violated
}

// ScheduleResponse reserves the response bus for a reply whose data is
// ready at readyTime; it returns the cycle at which the transfer
// completes. The transfer is placed at the first slot at or after
// readyTime that does not overlap an existing reservation, so a fast reply
// is not blocked behind a slower one that was merely scheduled earlier.
func (b *Bus) ScheduleResponse(readyTime int64) (doneTime int64) {
	start, delayed := reserve(&b.respRes, readyTime, b.RespOccupancy)
	if delayed {
		b.RespConflicts++
	}
	return start + b.RespOccupancy
}

// MonitorTS exposes the grant-order monitor's high-water mark for tests.
func (b *Bus) MonitorTS() int64 { return b.monitor.MaxTS }

// Snapshot copies the bus state.
func (b *Bus) Snapshot() *Bus {
	c := *b
	c.reqRes = append([]int64(nil), b.reqRes...)
	c.respRes = append([]int64(nil), b.respRes...)
	return &c
}

// SnapshotInto copies the bus state into dst, reusing dst's reservation
// backing arrays — the pooled-snapshot-graph variant of Snapshot.
func (b *Bus) SnapshotInto(dst *Bus) {
	dst.Restore(b)
}

// Reset returns the bus to its freshly-constructed idle state (same
// occupancies). Used when a pooled machine is recycled for a new run.
func (b *Bus) Reset() {
	b.reqRes = b.reqRes[:0]
	b.respRes = b.respRes[:0]
	b.monitor = violation.NewMonitor()
	b.Grants, b.Conflicts, b.RespConflicts, b.Violations = 0, 0, 0, 0
}

// Restore overwrites the bus state from a snapshot, reusing the existing
// reservation backing arrays (lengths are bounded by resWindow, so after
// warm-up no restore allocates).
func (b *Bus) Restore(snap *Bus) {
	reqRes := append(b.reqRes[:0], snap.reqRes...)
	respRes := append(b.respRes[:0], snap.respRes...)
	*b = *snap
	b.reqRes, b.respRes = reqRes, respRes
}

// Equal reports whether two buses hold identical reservations, monitor
// state, and counters (used by checkpoint-equivalence tests).
func (b *Bus) Equal(o *Bus) bool {
	if b.monitor != o.monitor ||
		b.ReqOccupancy != o.ReqOccupancy || b.RespOccupancy != o.RespOccupancy ||
		b.Grants != o.Grants || b.Conflicts != o.Conflicts ||
		b.RespConflicts != o.RespConflicts || b.Violations != o.Violations ||
		len(b.reqRes) != len(o.reqRes) || len(b.respRes) != len(o.respRes) {
		return false
	}
	for i := range b.reqRes {
		if b.reqRes[i] != o.reqRes[i] {
			return false
		}
	}
	for i := range b.respRes {
		if b.respRes[i] != o.respRes[i] {
			return false
		}
	}
	return true
}
