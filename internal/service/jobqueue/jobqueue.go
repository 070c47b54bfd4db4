// Package jobqueue implements the slacksimd service's bounded FIFO job
// queue: admission control with backpressure (Submit fails fast when the
// queue is full, which the HTTP layer maps to 429 + Retry-After), the
// job lifecycle pending → running → done/failed/cancelled, cancellation
// of pending jobs, per-job progress fan-out for SSE subscribers, and
// graceful drain (stop admitting, run everything already accepted).
//
// The queue is payload-agnostic: it schedules opaque payloads and stores
// opaque results, so it has no dependency on the simulator and can be
// tested in isolation.
package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State int32

// Job states. Pending jobs sit in the FIFO; Running jobs are owned by a
// worker; Done/Failed/Cancelled/Migrated are terminal.
const (
	Pending State = iota
	Running
	Done
	Failed
	Cancelled
	// Migrated means the run stopped at a checkpoint and exported its
	// state: the job is terminal here, and its snapshot continues the run
	// elsewhere (the fleet coordinator resumes it on another worker).
	Migrated
)

// String names the state; these strings are the service's wire format.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case Migrated:
		return "migrated"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled || s == Migrated
}

// Queue errors.
var (
	// ErrFull rejects a Submit when the pending FIFO is at capacity.
	ErrFull = errors.New("jobqueue: queue full")
	// ErrClosed rejects Submits after Close and unblocks Next forever.
	ErrClosed = errors.New("jobqueue: queue closed")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobqueue: no such job")
	// ErrNotCancellable reports a Cancel on a job that is not pending.
	ErrNotCancellable = errors.New("jobqueue: job is not pending")
	// ErrCancelled is the terminal error of a cancelled job; pass it to
	// Finish to mark a running job cancelled instead of failed.
	ErrCancelled = errors.New("jobqueue: job cancelled")
	// ErrMigrated is the terminal error of a migrated job; pass it to
	// Finish to mark a running job migrated instead of failed.
	ErrMigrated = errors.New("jobqueue: job migrated")
	// ErrDuplicate rejects a Restore whose job id is already tracked.
	ErrDuplicate = errors.New("jobqueue: job id already exists")
)

// Job is one unit of work tracked by the queue. Exported fields are
// immutable after Submit; mutable state is behind the accessors.
type Job struct {
	// ID is the queue-assigned identifier ("j1", "j2", ...).
	ID string
	// Key is the caller's dedup/content address (the spec hash).
	Key string
	// Payload is the work description (a spec.Spec in the service).
	Payload any
	// Created is the admission time.
	Created time.Time

	mu     sync.Mutex
	state  State // guarded by mu
	result any   // guarded by mu
	err    error // guarded by mu
	// done is created once in newJob and closed exactly once in finish;
	// receiving from it is lock-free by design.
	done     chan struct{}
	subs     map[int]chan any // guarded by mu
	nextSub  int              // guarded by mu
	lastProg any              // guarded by mu
}

func newJob(id, key string, payload any) *Job {
	return &Job{
		ID:      id,
		Key:     key,
		Payload: payload,
		Created: time.Now(),
		done:    make(chan struct{}),
		subs:    make(map[int]chan any),
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the terminal result and error; meaningful only after
// Done() is closed.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Publish fans a progress event out to every subscriber without ever
// blocking the producer: a subscriber whose buffer is full misses the
// event (progress is a monotone snapshot stream, so the next delivery
// supersedes it). The latest event is retained for late subscribers.
//
//slacksim:hotpath
func (j *Job) Publish(ev any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lastProg = ev
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// LastEvent returns the most recently published event (nil if none).
func (j *Job) LastEvent() any {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastProg
}

// Subscribe registers a progress listener with the given buffer and
// returns the channel plus a cancel func. The channel is closed when the
// job terminates, after any final buffered events.
func (j *Job) Subscribe(buf int) (<-chan any, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan any, buf)
	j.mu.Lock()
	id := j.nextSub
	j.nextSub++
	if j.state.Terminal() {
		close(ch)
	} else {
		j.subs[id] = ch
	}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// finish moves the job to a terminal state and releases waiters.
func (j *Job) finish(state State, result any, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.err = err
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
	close(j.done)
	j.mu.Unlock()
}

// Err returns the job's terminal error message ("" while non-terminal or
// on success).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		return ""
	}
	return j.err.Error()
}

// Stats is a snapshot of the queue's counters.
type Stats struct {
	Depth     int    `json:"depth"`
	Capacity  int    `json:"capacity"`
	Running   int    `json:"running"`
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Migrated  uint64 `json:"migrated"`
	Restored  uint64 `json:"restored"`
}

// DefaultRetention is how many terminal jobs stay retrievable by Get
// before the oldest are forgotten (bounding the job index under
// sustained traffic).
const DefaultRetention = 4096

// Queue is the bounded FIFO. All methods are safe for concurrent use.
type Queue struct {
	mu        sync.Mutex
	changed   chan struct{}   // guarded by mu; wakeLocked closes and replaces it
	capacity  int             // guarded by mu
	retention int             // guarded by mu
	pending   []*Job          // guarded by mu
	jobs      map[string]*Job // guarded by mu
	terminal  []string        // guarded by mu; terminal job ids, oldest first
	running   int             // guarded by mu
	closed    bool            // guarded by mu
	seq       uint64          // guarded by mu

	submitted, rejected, nDone, nFailed, nCancelled uint64 // guarded by mu
	nMigrated, nRestored                            uint64 // guarded by mu
}

// New builds a queue admitting at most capacity pending jobs (min 1).
func New(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{
		changed:   make(chan struct{}),
		capacity:  capacity,
		retention: DefaultRetention,
		jobs:      make(map[string]*Job),
	}
}

// wakeLocked releases every goroutine waiting in Next or Drain. A waiter
// reads q.changed under q.mu together with the state it tests, so a
// change made after that read closes the very channel it waits on: no
// wakeup is lost. Callers hold q.mu.
func (q *Queue) wakeLocked() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// SetRetention bounds how many terminal jobs Get can still find (min 1).
func (q *Queue) SetRetention(n int) {
	if n < 1 {
		n = 1
	}
	q.mu.Lock()
	q.retention = n
	q.sweepLocked()
	q.mu.Unlock()
}

// noteTerminalLocked records a terminal job and forgets the oldest terminal
// jobs beyond the retention bound. Callers hold q.mu.
func (q *Queue) noteTerminalLocked(id string) {
	q.terminal = append(q.terminal, id)
	q.sweepLocked()
}

func (q *Queue) sweepLocked() {
	for len(q.terminal) > q.retention {
		delete(q.jobs, q.terminal[0])
		q.terminal = q.terminal[1:]
	}
}

// Submit admits a new pending job, failing with ErrFull when the FIFO is
// at capacity (the caller should apply backpressure) or ErrClosed after
// Close.
func (q *Queue) Submit(key string, payload any) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if len(q.pending) >= q.capacity {
		q.rejected++
		return nil, ErrFull
	}
	q.seq++
	j := newJob(fmt.Sprintf("j%d", q.seq), key, payload)
	q.jobs[j.ID] = j
	q.pending = append(q.pending, j)
	q.submitted++
	q.wakeLocked()
	return j, nil
}

// Restore re-admits a job recovered from a crash journal under its
// original id, bypassing the capacity bound: recovery must never drop
// work that was already accepted. The sequence counter advances past the
// restored id so fresh submissions cannot collide with it.
func (q *Queue) Restore(id, key string, payload any) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if _, ok := q.jobs[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	var n uint64
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > q.seq {
		q.seq = n
	}
	j := newJob(id, key, payload)
	q.jobs[id] = j
	q.pending = append(q.pending, j)
	q.nRestored++
	q.wakeLocked()
	return j, nil
}

// AddDone registers an already-completed job (a cache hit served without
// occupying a queue slot) so it is visible to Get like any other job.
func (q *Queue) AddDone(key string, payload, result any) *Job {
	q.mu.Lock()
	q.seq++
	j := newJob(fmt.Sprintf("j%d", q.seq), key, payload)
	q.jobs[j.ID] = j
	q.noteTerminalLocked(j.ID)
	q.mu.Unlock()
	j.finish(Done, result, nil)
	return j
}

// Get looks a job up by id.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Next blocks until a pending job is available, marks it running, and
// returns it. It returns ErrClosed once the queue is closed AND the FIFO
// has drained, so workers naturally finish the backlog before exiting.
func (q *Queue) Next() (*Job, error) {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			j := q.pending[0]
			q.pending = q.pending[1:]
			j.mu.Lock()
			j.state = Running
			j.mu.Unlock()
			q.running++
			q.mu.Unlock()
			return j, nil
		}
		closed, changed := q.closed, q.changed
		q.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		<-changed
	}
}

// Cancel cancels a pending job, removing it from the FIFO. Running or
// terminal jobs return ErrNotCancellable (the service cancels running
// jobs through the engine's interrupt flag instead); unknown ids return
// ErrNotFound.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return ErrNotFound
	}
	idx := -1
	for i, p := range q.pending {
		if p == j {
			idx = i
			break
		}
	}
	if idx < 0 {
		q.mu.Unlock()
		return ErrNotCancellable
	}
	q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
	q.nCancelled++
	q.noteTerminalLocked(j.ID)
	q.wakeLocked()
	q.mu.Unlock()
	j.finish(Cancelled, nil, ErrCancelled)
	return nil
}

// Eject removes a pending job from the FIFO and marks it Migrated with
// no exported state: the job never started, so its spec alone restarts
// it anywhere. Running or terminal jobs return ErrNotCancellable;
// unknown ids return ErrNotFound.
func (q *Queue) Eject(id string) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return ErrNotFound
	}
	idx := -1
	for i, p := range q.pending {
		if p == j {
			idx = i
			break
		}
	}
	if idx < 0 {
		q.mu.Unlock()
		return ErrNotCancellable
	}
	q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
	q.nMigrated++
	q.noteTerminalLocked(j.ID)
	q.wakeLocked()
	q.mu.Unlock()
	j.finish(Migrated, nil, ErrMigrated)
	return nil
}

// Finish retires a running job: err == nil → Done, err wrapping
// ErrCancelled → Cancelled, err wrapping ErrMigrated → Migrated,
// anything else → Failed.
func (q *Queue) Finish(j *Job, result any, err error) {
	state := Done
	switch {
	case errors.Is(err, ErrCancelled):
		state = Cancelled
	case errors.Is(err, ErrMigrated):
		state = Migrated
	case err != nil:
		state = Failed
	}
	j.finish(state, result, err)
	q.mu.Lock()
	q.running--
	switch state {
	case Done:
		q.nDone++
	case Failed:
		q.nFailed++
	case Cancelled:
		q.nCancelled++
	case Migrated:
		q.nMigrated++
	}
	q.noteTerminalLocked(j.ID)
	q.wakeLocked()
	q.mu.Unlock()
}

// Close stops admission. Pending jobs still run; Next unblocks with
// ErrClosed once the FIFO drains.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.wakeLocked()
	q.mu.Unlock()
}

// Drain blocks until every admitted job has finished (pending FIFO empty
// and no job running) or ctx expires. It does not itself stop admission;
// call Close first for a terminal drain.
func (q *Queue) Drain(ctx context.Context) error {
	for {
		q.mu.Lock()
		idle := len(q.pending) == 0 && q.running == 0
		changed := q.changed
		q.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Stats snapshots the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return Stats{
		Depth:     len(q.pending),
		Capacity:  q.capacity,
		Running:   q.running,
		Submitted: q.submitted,
		Rejected:  q.rejected,
		Done:      q.nDone,
		Failed:    q.nFailed,
		Cancelled: q.nCancelled,
		Migrated:  q.nMigrated,
		Restored:  q.nRestored,
	}
}
