package memtrace

import (
	"slacksim/internal/core"
)

// Recorder captures a run's architectural retire streams. It implements
// core.OpRecorder plus the engine's checkpoint hooks, so speculative runs
// record correctly: replayed instructions after a rollback overwrite the
// rolled-back suffix instead of duplicating it.
//
// Concurrency: RecordOp for core i is called only from core i's
// simulation thread, and each core appends to its own stream — there is
// no shared mutable state between core indices, so the parallel host
// records without locks. Checkpoint and Rollback are called only at
// quiesced boundaries (no core ticking).
type Recorder struct {
	workload string
	events   [][]Event
	// marks holds each stream's length at the last checkpoint; Rollback
	// truncates to it, mirroring the engine's state restore.
	marks []int
}

// NewRecorder returns a recorder for a cores-wide run of the named
// workload.
func NewRecorder(cores int, workload string) *Recorder {
	return &Recorder{
		workload: workload,
		events:   make([][]Event, cores),
		marks:    make([]int, cores),
	}
}

// RecordOp implements core.OpRecorder.
//
//slacksim:hotpath
func (r *Recorder) RecordOp(c int, op core.MemOp, addr, val uint64) {
	r.events[c] = append(r.events[c], Event{Op: op, Addr: addr, Val: val}) //lint:allow hotpathalloc -- trace capture buffers the whole retire stream by design; growth is amortized append
}

// Checkpoint marks the current stream lengths; the engine calls it at
// every checkpoint boundary.
func (r *Recorder) Checkpoint() {
	for i, evs := range r.events {
		r.marks[i] = len(evs)
	}
}

// Rollback discards everything recorded since the last checkpoint; the
// engine calls it when it restores that checkpoint. The subsequent replay
// re-records the discarded window.
func (r *Recorder) Rollback() {
	for i := range r.events {
		r.events[i] = r.events[i][:r.marks[i]]
	}
}

// Trace returns the captured trace. The event slices are shared with the
// recorder; capture is complete once the run has finished.
func (r *Recorder) Trace() *Trace {
	return &Trace{
		Version:  version,
		Workload: r.workload,
		Cores:    len(r.events),
		Events:   r.events,
	}
}

// Encode serializes the captured trace into the canonical byte form.
func (r *Recorder) Encode() ([]byte, error) { return Encode(r.Trace()) }
