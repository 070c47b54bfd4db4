package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slacksim/client"
	"slacksim/internal/spec"
)

func testSpec() spec.Spec {
	return spec.Spec{Workload: "fft", Scheme: "s8", Cores: 2, Seed: 1}
}

// TestSubmitWait429BackoffHonorsContext: a server that keeps answering
// 429 with a long Retry-After must not pin SubmitWait past its context
// — the backoff sleep has to give up the moment the context ends.
func TestSubmitWait429BackoffHonorsContext(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer hs.Close()
	c := client.New(hs.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.SubmitWait(ctx, testSpec(), time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("SubmitWait slept %v into a 30s Retry-After after its context expired", since)
	}
}

// TestSubmitWaitBackoffFloorNoRetryAfter: a server answering 429
// WITHOUT a Retry-After header yields RetryError.After == 0; SubmitWait
// must apply its jittered minimum backoff instead of hot-looping the
// submit against the saturated server.
func TestSubmitWaitBackoffFloorNoRetryAfter(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		// Deliberately no Retry-After header.
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer hs.Close()
	c := client.New(hs.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	_, err := c.SubmitWait(ctx, testSpec(), time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The jittered floor sleeps at least 125ms between attempts, so a
	// 700ms window admits at most ~6 submits. A tight loop (the bug:
	// time.After(0) fires immediately) racks up thousands.
	if n := hits.Load(); n < 2 || n > 10 {
		t.Fatalf("server saw %d submits in 700ms; want a handful (backoff floor), not a tight loop", n)
	}
}

// TestSubmitWaitRecoversAfter429: the backoff loop is not just a delay
// — once the server has capacity again, SubmitWait goes through.
func TestSubmitWaitRecoversAfter429(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests) // no Retry-After
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"id": "j1", "state": "done"})
	}))
	defer hs.Close()
	c := client.New(hs.URL)

	start := time.Now()
	j, err := c.SubmitWait(context.Background(), testSpec(), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j1" || !j.Terminal() {
		t.Fatalf("job = %+v, want terminal j1", j)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d submits, want 3 (two 429s, one accept)", n)
	}
	// Two floored sleeps of at least 125ms each must have elapsed.
	if since := time.Since(start); since < 250*time.Millisecond {
		t.Fatalf("SubmitWait returned in %v; two jittered-floor backoffs should take >= 250ms", since)
	}
}

// TestWaitBacksOffOn429: a 429 on a poll round trip is transient — Wait
// keeps polling (with the backoff floor) instead of failing the wait.
func TestWaitBacksOffOn429(t *testing.T) {
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests) // no Retry-After
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"id": "j1", "state": "done"})
	}))
	defer hs.Close()
	j, err := client.New(hs.URL).Wait(context.Background(), "j1", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Terminal() {
		t.Fatalf("job = %+v, want terminal", j)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server saw %d polls, want 3", n)
	}
}

// TestWaitHonorsContextMidPoll: cancelling the context while Wait is
// between polls of a never-finishing job returns promptly.
func TestWaitHonorsContextMidPoll(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"id": "j1", "state": "running"})
	}))
	defer hs.Close()
	c := client.New(hs.URL)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Wait(ctx, "j1", 10*time.Second) // poll far longer than the cancel
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context canceled", err)
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("Wait returned after %v, expected prompt cancellation", since)
	}
}

// TestWithTimeoutBoundsARequest: WithTimeout caps one round trip
// against a hung server without touching the caller's context.
func TestWithTimeoutBoundsARequest(t *testing.T) {
	hang := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	defer hs.Close()
	defer close(hang) // LIFO: unblock the handler before Close waits on it
	c := client.New(hs.URL)

	start := time.Now()
	_, err := c.Submit(context.Background(), testSpec(), client.WithTimeout(50*time.Millisecond))
	if err == nil {
		t.Fatal("Submit against a hung server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if since := time.Since(start); since > 2*time.Second {
		t.Fatalf("Submit took %v with a 50ms per-request timeout", since)
	}
}

// TestStatusErrorClassification: 5xx is temporary (worth retrying
// elsewhere), other 4xx is permanent, and 429 stays a RetryError.
func TestStatusErrorClassification(t *testing.T) {
	for _, tc := range []struct {
		code      int
		temporary bool
	}{
		{http.StatusInternalServerError, true},
		{http.StatusBadGateway, true},
		{http.StatusBadRequest, false},
		{http.StatusNotFound, false},
	} {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.code)
			_, _ = w.Write([]byte(`{"error":"nope"}`))
		}))
		c := client.New(hs.URL)
		_, err := c.Submit(context.Background(), testSpec())
		hs.Close()
		var se *client.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("code %d: err = %T %v, want *StatusError", tc.code, err, err)
		}
		if se.Code != tc.code || se.Temporary() != tc.temporary {
			t.Fatalf("code %d: got code=%d temporary=%v", tc.code, se.Code, se.Temporary())
		}
		if se.Msg != "nope" {
			t.Fatalf("code %d: msg = %q", tc.code, se.Msg)
		}
	}

	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer hs.Close()
	_, err := client.New(hs.URL).Submit(context.Background(), testSpec())
	var re *client.RetryError
	if !errors.As(err, &re) || re.After != 2*time.Second {
		t.Fatalf("429 err = %v, want RetryError with After=2s", err)
	}
}

// TestMetricsFetch: the raw Prometheus text comes back verbatim.
func TestMetricsFetch(t *testing.T) {
	const body = "# TYPE x gauge\nx 1\n"
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(body))
	}))
	defer hs.Close()
	blob, err := client.New(hs.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != body {
		t.Fatalf("metrics = %q, want %q", blob, body)
	}
}

// TestConcurrentPollersReuseConnections: three Wait pollers sharing one
// client against one server keep three connections open between polls
// instead of redialing. The server counts dials with ConnState.
func TestConcurrentPollersReuseConnections(t *testing.T) {
	const pollers, polls = 3, 25
	var dials atomic.Int32
	var mu sync.Mutex
	seen := map[string]int{}
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		mu.Lock()
		seen[id]++
		state := "running"
		if seen[id] >= polls {
			state = "done"
		}
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(map[string]any{"id": id, "state": state})
	}))
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	c := client.New(hs.URL)
	var wg sync.WaitGroup
	errs := make(chan error, pollers)
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := c.Wait(context.Background(), id, time.Millisecond); err != nil {
				errs <- err
			}
		}(fmt.Sprintf("j%d", i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load(); n > pollers {
		t.Fatalf("%d pollers dialed %d connections over %d polls each; want one connection per poller", pollers, n, polls)
	}
}
