// Package event defines the timestamped messages exchanged between core
// threads and the simulation manager thread, and the queues that carry
// them: each core owns an outgoing queue (OutQ) and an incoming queue
// (InQ), and the manager consolidates all outstanding work in a global
// queue (GQ), mirroring the SlackSim architecture of the paper's Figure 1.
package event

import (
	"fmt"

	"slacksim/internal/coherence"
)

// Request is a memory-system transaction sent from a core thread to the
// simulation manager (an L1 miss, upgrade, writeback, or I-fetch miss).
type Request struct {
	// ID is unique within the issuing core and matches the eventual Reply.
	ID uint64
	// Core is the issuing core's index.
	Core int
	// Kind is the bus transaction type.
	Kind coherence.BusReq
	// LineAddr is the line address (byte address >> cache.LineShift).
	LineAddr uint64
	// TS is the issuing core's local time when the request was issued; the
	// manager uses it for arbitration-order monitoring and reply timing.
	TS int64
}

// String renders the request for traces.
func (r Request) String() string {
	return fmt.Sprintf("req{c%d #%d %s line=%#x ts=%d}", r.Core, r.ID, r.Kind, r.LineAddr, r.TS)
}

// MsgKind distinguishes manager-to-core messages.
type MsgKind uint8

// Manager-to-core message kinds.
const (
	// MsgReply completes one of the core's own requests.
	MsgReply MsgKind = iota
	// MsgInval snoop-invalidates or downgrades a line in the core's L1.
	MsgInval
)

// Msg is a manager-to-core message delivered through the core's InQ.
type Msg struct {
	Kind MsgKind
	// ReqID echoes Request.ID for MsgReply.
	ReqID uint64
	// LineAddr is the affected line.
	LineAddr uint64
	// NewState is the L1's state after this message is applied: the grant
	// state for replies, S or I for snoops.
	NewState coherence.State
	// TS is the simulated time at which the message takes effect (data
	// ready time for replies). The core consumes a reply when its local
	// time reaches TS, per the paper's InQ protocol.
	TS int64
}

// String renders the message for traces.
func (m Msg) String() string {
	k := "reply"
	if m.Kind == MsgInval {
		k = "inval"
	}
	return fmt.Sprintf("msg{%s #%d line=%#x ->%s ts=%d}", k, m.ReqID, m.LineAddr, m.NewState, m.TS)
}

// Queue is a FIFO of manager-to-core messages or core-to-manager requests
// with a single owner at any instant and no synchronization of its own.
// On the deterministic host one goroutine does everything. On the
// parallel host a core's queues are touched during a round only by the
// worker that ticks the core (the push end of its out-queue, the pop end
// of its in-queue) and between rounds only by the manager; the round
// barrier's release and arrival order every hand-off (DESIGN.md §8).
//
// The queue keeps a head index into a reused backing array instead of
// re-slicing on every Pop, so steady-state push/pop traffic allocates
// nothing: when the queue empties, the whole backing array is reclaimed
// for the next burst.
type Queue[T any] struct {
	items []T
	head  int
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Push appends an item.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
}

// Pop removes and returns the head item; ok is false when empty.
//
//slacksim:hotpath
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release references for pointerful T
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Peek returns the head item without removing it.
//
//slacksim:hotpath
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	return q.items[q.head], true
}

// Len returns the number of queued items.
//
//slacksim:hotpath
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// DrainInto removes all items in order, appending them to buf (which is
// returned). With a reused buf it allocates nothing.
//
//slacksim:hotpath
func (q *Queue[T]) DrainInto(buf []T) []T {
	if q.head == len(q.items) {
		return buf
	}
	buf = append(buf, q.items[q.head:]...)
	q.reset()
	return buf
}

// Snapshot copies the queue contents.
func (q *Queue[T]) Snapshot() []T {
	return append([]T(nil), q.items[q.head:]...)
}

// SnapshotInto copies the queue contents into buf's backing array
// (truncating buf first) and returns it, for checkpoints that reuse
// their buffers.
//
//slacksim:hotpath
func (q *Queue[T]) SnapshotInto(buf []T) []T {
	return append(buf[:0], q.items[q.head:]...)
}

// Restore replaces the queue contents, reusing the backing array.
//
//slacksim:hotpath
func (q *Queue[T]) Restore(items []T) {
	q.reset()
	q.items = append(q.items[:0], items...)
}

// reset empties the queue, clearing retained values so a pooled queue
// pins nothing from its previous contents.
//
//slacksim:hotpath
func (q *Queue[T]) reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
}
