// Package uncore implements the target-system model owned by the
// simulation manager thread: the snooping request/response bus, the shared
// L2 cache, main memory timing, and the global cache status map tracking
// every L1 copy. It corresponds to the first function of the paper's
// manager thread (the second — pacing the simulation — lives in
// internal/engine).
//
// The manager services requests *eagerly*, in the order it receives them,
// which is what allows a slack simulation to process two cores' accesses
// in a different order than the target machine would; the bus grant
// monitor and the status-map monitors detect exactly those reorderings and
// report them to the violation detector.
package uncore

import (
	"fmt"

	"slacksim/internal/bus"
	"slacksim/internal/cache"
	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/trace"
	"slacksim/internal/violation"
)

// Config describes the shared memory system.
type Config struct {
	NumCores int
	// L2 configures the shared cache (the paper: 256KB, 8-cycle access).
	L2 cache.Config
	// MemLatency is the L2 miss penalty in cycles (the paper: 100).
	MemLatency int64
	// OwnerFlushLatency is the latency for a dirty L1 to supply a line.
	OwnerFlushLatency int64
	// ReqBusOccupancy and RespBusOccupancy are bus cycles per transaction.
	ReqBusOccupancy, RespBusOccupancy int64
}

// DefaultConfig returns the paper's shared-memory configuration.
func DefaultConfig(numCores int) Config {
	return Config{
		NumCores: numCores,
		L2: cache.Config{
			Name: "l2", SizeBytes: 256 << 10, Assoc: 8, LatencyCycles: 8,
		},
		MemLatency:        100,
		OwnerFlushLatency: 8,
		ReqBusOccupancy:   1,
		RespBusOccupancy:  1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumCores <= 0 {
		return fmt.Errorf("uncore: NumCores must be positive")
	}
	if c.MemLatency <= 0 || c.OwnerFlushLatency < 0 {
		return fmt.Errorf("uncore: latencies must be positive")
	}
	return c.L2.Validate()
}

// Uncore is the manager-side model of the shared memory system.
type Uncore struct {
	cfg  Config
	bus  *bus.Bus
	l2   *cache.Cache
	smap *cache.StatusMap
	det  *violation.Detector
	inQs []*event.Queue[event.Msg]
	trc  *trace.Ring

	// Served counts serviced requests (the manager's event workload).
	Served uint64
	// Invalidations counts snoop messages sent to remote L1s.
	Invalidations uint64

	// holdScratch backs the holder list in Service so the per-request hot
	// path allocates nothing.
	holdScratch []int
}

// New builds the uncore. inQs[i] is core i's incoming queue; det receives
// detected violations.
func New(cfg Config, inQs []*event.Queue[event.Msg], det *violation.Detector) (*Uncore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(inQs) != cfg.NumCores {
		return nil, fmt.Errorf("uncore: %d InQs for %d cores", len(inQs), cfg.NumCores)
	}
	return &Uncore{
		cfg:  cfg,
		bus:  bus.New(cfg.ReqBusOccupancy, cfg.RespBusOccupancy),
		l2:   cache.New(cfg.L2),
		smap: cache.NewStatusMap(cfg.NumCores),
		det:  det,
		inQs: inQs,
	}, nil
}

// Bus exposes the bus model (stats, tests).
func (u *Uncore) Bus() *bus.Bus { return u.bus }

// L2 exposes the shared cache (stats, tests).
func (u *Uncore) L2() *cache.Cache { return u.l2 }

// StatusMap exposes the global L1 state map (tests).
func (u *Uncore) StatusMap() *cache.StatusMap { return u.smap }

// SetTracer attaches an optional event ring (nil disables tracing).
func (u *Uncore) SetTracer(r *trace.Ring) { u.trc = r }

// Service processes one core request completely: request-bus arbitration,
// snooping (with invalidations to remote L1s through their InQs), L2/memory
// timing, status-map update, and the data reply on the response bus. It
// records bus and map violations in the detector.
func (u *Uncore) Service(req event.Request) {
	u.Served++
	// Addf calls are guarded by Enabled so the variadic boxing only
	// allocates when a tracer is attached — this is the hottest manager
	// path, one call per serviced request.
	if u.trc.Enabled() {
		u.trc.Addf(req.TS, req.Core, trace.Request, "%s line=%#x", req.Kind, req.LineAddr)
	}
	grant, busViol := u.bus.Grant(req.TS)
	if busViol {
		u.det.Record(violation.Bus, req.TS)
		if u.trc.Enabled() {
			u.trc.Addf(req.TS, req.Core, trace.Violation, "bus reorder line=%#x", req.LineAddr)
		}
	}

	// At most one map violation is charged per serviced request, however
	// many per-core entries its snoops touch.
	mapViolated := false

	if req.Kind == coherence.BusWB {
		// Dirty eviction: data is written into L2; no reply needed.
		u.l2.Probe(req.LineAddr, true)
		u.l2.Insert(req.LineAddr, coherence.Modified)
		if u.smap.Apply(req.LineAddr, req.Core, coherence.Invalid, req.TS) {
			u.det.Record(violation.Map, req.TS)
		}
		return
	}

	// Effective kind: an upgrade whose S copy was already invalidated by a
	// racing BusRdX must refetch data.
	kind := req.Kind
	if kind == coherence.BusUpgr && !u.smap.State(req.LineAddr, req.Core).Valid() {
		kind = coherence.BusRdX
	}

	// Snoop every remote holder.
	owner := u.smap.OwnerOtherThan(req.LineAddr, req.Core)
	holders := u.smap.HoldersInto(u.holdScratch[:0], req.LineAddr, req.Core)
	u.holdScratch = holders
	sharedElsewhere := false
	for _, h := range holders {
		next, _ := coherence.SnoopState(u.smap.State(req.LineAddr, h), kind)
		mapViolated = u.smap.Apply(req.LineAddr, h, next, req.TS) || mapViolated
		u.inQs[h].Push(event.Msg{
			Kind:     event.MsgInval,
			LineAddr: req.LineAddr,
			NewState: next,
			TS:       grant + u.cfg.ReqBusOccupancy,
		})
		u.Invalidations++
		if next.Valid() {
			sharedElsewhere = true
		}
	}

	// Data source timing.
	var ready int64
	switch {
	case kind == coherence.BusUpgr:
		// No data transfer; permission granted when the request wins the
		// bus and snoops are out.
		ready = grant + u.cfg.ReqBusOccupancy
	case owner >= 0:
		// Cache-to-cache supply from the dirty/exclusive owner; the line
		// is also written back into L2.
		ready = grant + u.cfg.OwnerFlushLatency
		u.l2.Probe(req.LineAddr, true)
		u.l2.Insert(req.LineAddr, coherence.Modified)
	default:
		if u.l2.Probe(req.LineAddr, false) {
			ready = grant + int64(u.l2.Latency())
		} else {
			ready = grant + int64(u.l2.Latency()) + u.cfg.MemLatency
			// The L2 victim's writeback to memory is off the critical path.
			u.l2.Insert(req.LineAddr, coherence.Shared)
		}
	}

	grantState := coherence.GrantState(kind, sharedElsewhere)
	mapViolated = u.smap.Apply(req.LineAddr, req.Core, grantState, req.TS) || mapViolated
	if mapViolated {
		u.det.Record(violation.Map, req.TS)
		if u.trc.Enabled() {
			u.trc.Addf(req.TS, req.Core, trace.Violation, "map ownership reorder line=%#x", req.LineAddr)
		}
	}

	done := ready
	if kind != coherence.BusUpgr {
		done = u.bus.ScheduleResponse(ready)
	}
	u.inQs[req.Core].Push(event.Msg{
		Kind:     event.MsgReply,
		ReqID:    req.ID,
		LineAddr: req.LineAddr,
		NewState: grantState,
		TS:       done,
	})
}

// Snapshot deep-copies the uncore state (queues are snapshotted by the
// engine, which owns them).
type Snapshot struct {
	bus           *bus.Bus
	l2            *cache.Cache
	smap          *cache.StatusMap
	served        uint64
	invalidations uint64
}

// Snapshot captures bus, L2 and status-map state.
func (u *Uncore) Snapshot() *Snapshot {
	return &Snapshot{
		bus:           u.bus.Snapshot(),
		l2:            u.l2.Snapshot(),
		smap:          u.smap.Snapshot(),
		served:        u.Served,
		invalidations: u.Invalidations,
	}
}

// SnapshotInto captures bus, L2 and status-map state into s, reusing s's
// component graphs — the pooled-snapshot-graph variant of Snapshot. A
// zero Snapshot is populated on first use (pool warm-up); after that no
// component is reallocated.
func (u *Uncore) SnapshotInto(s *Snapshot) {
	if s.bus == nil {
		s.bus = u.bus.Snapshot() //lint:allow hotpathalloc -- one-time pool warm-up; later boundaries reuse s.bus in place
	} else {
		u.bus.SnapshotInto(s.bus)
	}
	if s.l2 == nil {
		s.l2 = u.l2.Snapshot() //lint:allow hotpathalloc -- one-time pool warm-up; later boundaries reuse s.l2 in place
	} else {
		u.l2.SnapshotInto(s.l2)
	}
	if s.smap == nil {
		s.smap = u.smap.Snapshot() //lint:allow hotpathalloc -- one-time pool warm-up; later boundaries reuse s.smap in place
	} else {
		u.smap.SnapshotInto(s.smap)
	}
	s.served = u.Served
	s.invalidations = u.Invalidations
}

// Reset returns the uncore to its freshly-constructed state (same
// configuration and queues), detaching any tracer. Used when a pooled
// machine is recycled for a new run.
func (u *Uncore) Reset() {
	u.bus.Reset()
	u.l2.Reset()
	u.smap.Reset()
	u.Served = 0
	u.Invalidations = 0
	u.trc = nil
}

// CheckSnapshot reports why s cannot be restored into u, or nil. Restore
// trusts its snapshot, so one decoded from bytes that crossed a socket or
// a disk must pass this first: every component present, the L2 of u's
// geometry, and the status map sized for u's cores (the manager indexes
// its state vectors by core).
func (u *Uncore) CheckSnapshot(s *Snapshot) error {
	switch {
	case s == nil || s.bus == nil || s.l2 == nil || s.smap == nil:
		return fmt.Errorf("uncore snapshot: missing bus, L2 or status map state")
	case s.l2.Config() != u.l2.Config():
		return fmt.Errorf("uncore snapshot: L2 geometry differs from the machine's")
	case s.smap.NumCores() != u.smap.NumCores():
		return fmt.Errorf("uncore snapshot: status map tracks %d cores, the machine has %d",
			s.smap.NumCores(), u.smap.NumCores())
	}
	return nil
}

// Restore overwrites the uncore from a snapshot.
func (u *Uncore) Restore(s *Snapshot) {
	u.bus.Restore(s.bus)
	u.l2.Restore(s.l2)
	u.smap.Restore(s.smap)
	u.Served = s.served
	u.Invalidations = s.invalidations
}

// StateEqual reports whether two uncores hold identical bus, L2, and
// status-map state (used by checkpoint-equivalence tests).
func (u *Uncore) StateEqual(o *Uncore) bool {
	return u.Served == o.Served && u.Invalidations == o.Invalidations &&
		u.bus.Equal(o.bus) && u.l2.Equal(o.l2) && u.smap.Equal(o.smap)
}

// StateWords estimates snapshot size for the checkpoint cost model.
func (u *Uncore) StateWords() int {
	return u.l2.StateWords() + u.smap.StateWords() + 16
}
