package engine

import (
	"fmt"
	"strings"
	"time"

	"slacksim/internal/trace"
)

// CoreStall is one core's pacing state when a stalled run was stopped, as
// captured for the structured failure dump. Parked means the core had
// reached the round's wall (its max local time) and was waiting for the
// round to end; an active core that is not parked belongs to a worker
// that never arrived (StallError.Behind names it).
type CoreStall struct {
	Core      int
	LocalTime int64
	MaxLocal  int64
	Parked    bool
	Retired   bool
}

// StallError reports that the goroutine-parallel host made no forward
// progress (no round completed, so no core advanced its local time,
// committed an instruction, or retired) for a full wall-clock stall
// budget. It carries a structured snapshot of the pacing state so a wedged
// CI run fails with a diagnosis instead of hanging: per-core local/max-local
// times, park/retire flags, the workers that never arrived, the global
// time, and the manager's GQ depth.
type StallError struct {
	// Budget is the wall-clock window that elapsed with no progress.
	Budget time.Duration
	// Global is the manager's global time (min active local time).
	Global int64
	// GQDepth is the number of requests queued in the manager's GQ.
	GQDepth int
	// Round is the last round the manager released, and Behind the
	// workers whose arrival slot had not reached it, in order. The
	// manager, worker 0, ticks its own partition before it waits, so it is
	// never behind.
	Round  uint64
	Behind []int
	// Cores holds one entry per target core.
	Cores []CoreStall
	// Trace is the tail of the run's event ring (serviced requests,
	// violations, bound changes, checkpoints), newest last — what the
	// simulation was doing just before it wedged. Empty when the run was
	// not traced (Config.TraceEvents == 0).
	Trace []string
	// TraceTotal is how many events the ring recorded overall, so the
	// dump shows how much history the tail represents.
	TraceTotal uint64
}

// Error formats the structured dump, one line per core, followed by the
// trace tail when the run was traced.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: parallel host stalled: no progress for %v at global=%d (gq depth %d)",
		e.Budget, e.Global, e.GQDepth)
	for _, w := range e.Behind {
		fmt.Fprintf(&b, "\n  worker %d: never arrived in round %d", w, e.Round)
	}
	for _, c := range e.Cores {
		fmt.Fprintf(&b, "\n  core %d: local=%d maxLocal=%d parked=%v retired=%v",
			c.Core, c.LocalTime, c.MaxLocal, c.Parked, c.Retired)
	}
	if len(e.Trace) > 0 {
		fmt.Fprintf(&b, "\n  trace tail (last %d of %d events):", len(e.Trace), e.TraceTotal)
		for _, line := range e.Trace {
			fmt.Fprintf(&b, "\n    %s", line)
		}
	}
	return b.String()
}

// stallTraceTail bounds how many ring events a stall dump carries.
const stallTraceTail = 32

// attachTrace copies the tail of the run's event ring into the dump.
// Callers must only invoke it once the ring is quiescent (after the
// run's goroutines have joined); a nil ring is a no-op.
func (e *StallError) attachTrace(r *trace.Ring) {
	if r == nil {
		return
	}
	events := r.Events()
	if len(events) > stallTraceTail {
		events = events[len(events)-stallTraceTail:]
	}
	for _, ev := range events {
		e.Trace = append(e.Trace, ev.String())
	}
	e.TraceTotal = r.Total()
}

// stallDump captures the state of a force-stopped run. It runs after every
// goroutine has joined, so it reads the cores and the manager directly.
func (r *parRun) stallDump() *StallError {
	e := &StallError{Budget: r.cfg.StallTimeout, Global: r.global, GQDepth: len(r.gq), Round: r.round.Load()}
	for w := 1; w < r.workers; w++ {
		if r.slots[w].round.Load() < e.Round {
			e.Behind = append(e.Behind, w)
		}
	}
	for i, c := range r.m.cores {
		e.Cores = append(e.Cores, CoreStall{
			Core:      i,
			LocalTime: c.Now(),
			MaxLocal:  r.wall,
			Parked:    !r.retired[i] && c.Now() >= r.wall,
			Retired:   r.retired[i],
		})
	}
	return e
}

// watchdog polls the progress counter the manager publishes after every
// round and force-stops the run when it does not change for a full
// StallTimeout window: a worker that never arrives holds the manager at
// the barrier, so no round completes. It exits when done is closed.
// Detection latency is at most budget + one poll.
func (r *parRun) watchdog(done <-chan struct{}) {
	budget := r.cfg.StallTimeout
	tick := time.NewTicker(min(max(budget/16, time.Millisecond), time.Second)) //lint:allow determinism -- the stall watchdog is wall-clock by design and never touches simulated state
	defer tick.Stop()
	last := r.progress.Load()
	lastChange := time.Now() //lint:allow determinism -- the stall watchdog is wall-clock by design and never touches simulated state
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if cur := r.progress.Load(); cur != last {
				last = cur
				lastChange = time.Now() //lint:allow determinism -- the stall watchdog is wall-clock by design and never touches simulated state
				continue
			}
			if time.Since(lastChange) >= budget { //lint:allow determinism -- the stall watchdog is wall-clock by design and never touches simulated state
				r.stalled.Store(true)
				r.stop.Store(true)
				return
			}
		}
	}
}
