package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFIFOOrderAndStates(t *testing.T) {
	q := New(8)
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := q.Submit(fmt.Sprintf("k%d", i), i)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if j.State() != Pending {
			t.Fatalf("fresh job state = %v", j.State())
		}
		ids = append(ids, j.ID)
	}
	for i := 0; i < 3; i++ {
		j, err := q.Next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if j.ID != ids[i] {
			t.Fatalf("pop %d = %s, want %s (FIFO)", i, j.ID, ids[i])
		}
		if j.State() != Running {
			t.Fatalf("popped job state = %v", j.State())
		}
		q.Finish(j, i*10, nil)
		if j.State() != Done {
			t.Fatalf("finished job state = %v", j.State())
		}
		res, err := j.Result()
		if err != nil || res.(int) != i*10 {
			t.Fatalf("result = %v, %v", res, err)
		}
	}
	s := q.Stats()
	if s.Submitted != 3 || s.Done != 3 || s.Depth != 0 || s.Running != 0 {
		t.Fatalf("bad stats: %+v", s)
	}
}

func TestBackpressure(t *testing.T) {
	q := New(2)
	if _, err := q.Submit("a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("b", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("c", nil); !errors.Is(err, ErrFull) {
		t.Fatalf("want ErrFull, got %v", err)
	}
	if got := q.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// Popping one frees a slot.
	j, err := q.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("c", nil); err != nil {
		t.Fatalf("submit after pop: %v", err)
	}
	q.Finish(j, nil, nil)
}

func TestCancelPending(t *testing.T) {
	q := New(4)
	a, _ := q.Submit("a", nil)
	b, _ := q.Submit("b", nil)
	if err := q.Cancel(b.ID); err != nil {
		t.Fatalf("cancel pending: %v", err)
	}
	if b.State() != Cancelled {
		t.Fatalf("state = %v", b.State())
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("done channel not closed on cancel")
	}
	// The cancelled job never reaches a worker.
	j, err := q.Next()
	if err != nil || j.ID != a.ID {
		t.Fatalf("next = %v, %v; want %s", j, err, a.ID)
	}
	if err := q.Cancel(a.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("cancel running: want ErrNotCancellable, got %v", err)
	}
	if err := q.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: want ErrNotFound, got %v", err)
	}
	// A running job interrupted by the engine finishes Cancelled.
	q.Finish(j, nil, fmt.Errorf("run: %w", ErrCancelled))
	if j.State() != Cancelled {
		t.Fatalf("interrupted job state = %v", j.State())
	}
	if got := q.Stats().Cancelled; got != 2 {
		t.Fatalf("cancelled = %d, want 2", got)
	}
}

func TestFailurePath(t *testing.T) {
	q := New(1)
	j, _ := q.Submit("a", nil)
	jj, _ := q.Next()
	q.Finish(jj, nil, errors.New("boom"))
	if j.State() != Failed || j.Err() != "boom" {
		t.Fatalf("state=%v err=%q", j.State(), j.Err())
	}
	if got := q.Stats().Failed; got != 1 {
		t.Fatalf("failed = %d", got)
	}
}

func TestPublishSubscribe(t *testing.T) {
	q := New(1)
	j, _ := q.Submit("a", nil)
	ch, cancel := j.Subscribe(4)
	defer cancel()
	j.Publish(1)
	j.Publish(2)
	if got := <-ch; got.(int) != 1 {
		t.Fatalf("first event = %v", got)
	}
	if got := j.LastEvent(); got.(int) != 2 {
		t.Fatalf("last event = %v", got)
	}
	// A full subscriber never blocks the publisher.
	for i := 0; i < 100; i++ {
		j.Publish(i)
	}
	jj, _ := q.Next()
	q.Finish(jj, nil, nil)
	// Channel closes on terminal state (drain buffered then closed).
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscriber channel never closed")
		}
	}
}

func TestSubscribeTerminal(t *testing.T) {
	q := New(1)
	j, _ := q.Submit("a", nil)
	jj, _ := q.Next()
	q.Finish(jj, nil, nil)
	ch, cancel := j.Subscribe(1)
	defer cancel()
	if _, ok := <-ch; ok {
		t.Fatal("subscription to a terminal job should be closed immediately")
	}
}

func TestCloseDrainsWorkers(t *testing.T) {
	q := New(8)
	for i := 0; i < 5; i++ {
		if _, err := q.Submit("k", i); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if _, err := q.Submit("late", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	// Workers drain the backlog, then see ErrClosed.
	var done int
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := q.Next()
				if err != nil {
					return
				}
				q.Finish(j, nil, nil)
				mu.Lock()
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if done != 5 {
		t.Fatalf("drained %d jobs, want 5", done)
	}
	ctx, stop := context.WithTimeout(context.Background(), time.Second)
	defer stop()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestDrainTimeout(t *testing.T) {
	q := New(1)
	j, _ := q.Submit("a", nil)
	if _, err := q.Next(); err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer stop()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a stuck running job: want deadline, got %v", err)
	}
	q.Finish(j, nil, nil)
}

func TestTerminalRetention(t *testing.T) {
	q := New(4)
	q.SetRetention(2)
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := q.Submit("k", i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		jj, _ := q.Next()
		q.Finish(jj, nil, nil)
	}
	// Only the two most recent terminal jobs remain retrievable.
	for _, id := range ids[:2] {
		if _, ok := q.Get(id); ok {
			t.Fatalf("job %s should have been swept", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := q.Get(id); !ok {
			t.Fatalf("job %s should have been retained", id)
		}
	}
}

func TestConcurrentSubmitPop(t *testing.T) {
	q := New(64)
	const producers, each = 8, 50
	var wg sync.WaitGroup
	var accepted, popped int64
	var mu sync.Mutex
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := q.Next()
				if err != nil {
					return
				}
				q.Finish(j, nil, nil)
				mu.Lock()
				popped++
				mu.Unlock()
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < each; i++ {
				if _, err := q.Submit("k", i); err == nil {
					mu.Lock()
					accepted++
					mu.Unlock()
				}
			}
		}()
	}
	pwg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	q.Close()
	wg.Wait()
	close(stop)
	if popped != accepted {
		t.Fatalf("popped %d != accepted %d", popped, accepted)
	}
}

// TestDrainWakesWhenPendingJobsLeave runs Drain with pending jobs and no
// worker: it must return nil once the last pending job leaves the FIFO,
// whether by Cancel or by Eject.
func TestDrainWakesWhenPendingJobsLeave(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove func(q *Queue, id string) error
	}{
		{"cancel", (*Queue).Cancel},
		{"eject", (*Queue).Eject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New(4)
			a, _ := q.Submit("a", nil)
			b, _ := q.Submit("b", nil)
			ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
			defer stop()
			drained := make(chan error, 1)
			go func() { drained <- q.Drain(ctx) }()
			if err := tc.remove(q, a.ID); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-drained:
				t.Fatalf("Drain returned %v with %s still pending", err, b.ID)
			case <-time.After(20 * time.Millisecond):
			}
			if err := tc.remove(q, b.ID); err != nil {
				t.Fatal(err)
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain after the last pending job left: %v", err)
			}
		})
	}
}

// TestCloseReleasesEveryWaitingNext parks several workers in Next on an
// empty queue: Close must release all of them with ErrClosed.
func TestCloseReleasesEveryWaitingNext(t *testing.T) {
	q := New(4)
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			_, err := q.Next()
			errs <- err
		}()
	}
	// Let the workers park first: a worker that reaches Next after Close
	// returns without waiting, and would not test the wakeup.
	time.Sleep(20 * time.Millisecond)
	q.Close()
	timeout := time.After(5 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Next after Close: %v, want ErrClosed", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d workers still waiting in Next after Close", workers-w, workers)
		}
	}
}
