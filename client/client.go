// Package client is the Go client for slacksimd, the slacksim
// simulation service. It speaks the /v1 JSON API: submit run specs, poll
// or stream job progress, cancel jobs, and read service stats. Specs are
// the same canonical run description the CLIs use (internal/spec), so a
// grid sweep can switch between in-process runs and service submissions
// without translating anything.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"slacksim"
	"slacksim/internal/service/jobqueue"
	"slacksim/internal/spec"
)

// Spec is the canonical run specification (see internal/spec).
type Spec = spec.Spec

// Job mirrors the service's job view.
type Job struct {
	ID        string             `json:"id"`
	State     string             `json:"state"`
	Key       string             `json:"key"`
	Spec      Spec               `json:"spec"`
	Cached    bool               `json:"cached,omitempty"`
	Coalesced bool               `json:"coalesced,omitempty"`
	Progress  *slacksim.Progress `json:"progress,omitempty"`
	Result    *slacksim.Results  `json:"result,omitempty"`
	Error     string             `json:"error,omitempty"`
	// Detail carries runner-specific extras verbatim: against a fleet
	// coordinator it is the job's per-attempt dispatch history.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// Terminal reports whether the job reached a final state.
func (j *Job) Terminal() bool {
	switch j.State {
	case jobqueue.Done.String(), jobqueue.Failed.String(),
		jobqueue.Cancelled.String(), jobqueue.Migrated.String():
		return true
	}
	return false
}

// RetryError reports a 429 admission rejection with the server's
// suggested backoff. After is zero when the server sent no (or an
// unusable) Retry-After header; retry loops must treat zero as
// "unknown" and apply their own floor, never as "retry immediately".
type RetryError struct {
	After time.Duration
	Msg   string
}

// minRetryBackoff is the floor applied to 429 retry sleeps. A
// RetryError whose After is zero (server omitted Retry-After, or an
// intermediary stripped it) must not turn SubmitWait into a tight
// submit loop against an already-saturated server.
const minRetryBackoff = 250 * time.Millisecond

// retryBackoff returns the sleep before the next attempt after a 429:
// the server's suggestion when it is at least the floor, otherwise a
// jittered floor (uniform in [0.5x, 1.5x)) so a burst of rejected
// submitters does not come back in lockstep.
func retryBackoff(after time.Duration) time.Duration {
	if after >= minRetryBackoff {
		return after
	}
	return minRetryBackoff/2 + rand.N(minRetryBackoff)
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("server busy (retry after %v): %s", e.After, e.Msg)
}

// StatusError reports a non-429 HTTP error response with its status
// code, so callers (the fleet coordinator in particular) can tell a
// permanent rejection (4xx: bad spec, unknown job) from a server-side
// failure (5xx) worth retrying on another worker.
type StatusError struct {
	Code   int
	Status string
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: %s", e.Status, e.Msg)
}

// Temporary reports whether the error is worth retrying (5xx).
func (e *StatusError) Temporary() bool { return e.Code >= 500 }

// Option adjusts a single request.
type Option func(*reqOptions)

type reqOptions struct {
	timeout time.Duration
}

// WithTimeout bounds one request (and, for Wait/SubmitWait, each HTTP
// round trip inside it) without touching the caller's context.
func WithTimeout(d time.Duration) Option {
	return func(o *reqOptions) { o.timeout = d }
}

// apply resolves the options and returns a possibly-derived context
// plus its cancel func (a no-op when no timeout was requested).
func apply(ctx context.Context, opts []Option) (context.Context, context.CancelFunc) {
	var o reqOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.timeout > 0 {
		return context.WithTimeout(ctx, o.timeout)
	}
	return ctx, func() {}
}

// Event is one SSE frame from a job's event stream.
type Event struct {
	// Name is "progress" or a terminal state ("done", "failed", "cancelled").
	Name string
	// Data is the raw JSON payload (a Progress or a Job).
	Data []byte
}

// Client talks to one slacksimd instance.
type Client struct {
	base string
	hc   *http.Client
}

// maxIdlePerHost is how many idle connections a client keeps to its
// server: enough for every concurrent poller of a sweep or a fleet
// dispatcher to find its connection again (http.DefaultTransport keeps
// two, so a third concurrent caller redialed on every request).
const maxIdlePerHost = 64

// New builds a client for the given base URL (e.g. "http://localhost:8080").
// The client has a connection pool of its own, on a transport cloned from
// http.DefaultTransport.
func New(base string) *Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdlePerHost
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{Transport: tr}}
}

// NewWithHTTPClient builds a client using a custom http.Client (tests,
// custom transports, timeouts).
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Report the server's suggestion verbatim; a missing or
		// unparseable Retry-After yields After == 0 ("unknown"), and the
		// retry loops are responsible for flooring it.
		var after time.Duration
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			after = time.Duration(v) * time.Second
		}
		return &RetryError{After: after, Msg: errBody(blob)}
	}
	if resp.StatusCode >= 400 {
		return &StatusError{
			Code:   resp.StatusCode,
			Status: fmt.Sprintf("client: %s %s: %s", method, path, resp.Status),
			Msg:    errBody(blob),
		}
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

func errBody(blob []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(blob, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(blob))
}

// Submit posts a run spec. A full queue returns a *RetryError.
func (c *Client) Submit(ctx context.Context, sp Spec, opts ...Option) (*Job, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	var j Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", sp, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Get fetches a job's current state.
func (c *Client) Get(ctx context.Context, id string, opts ...Option) (*Job, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	var j Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string, opts ...Option) (*Job, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	var j Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Migrate asks the server to checkpoint-migrate a job: pending jobs are
// ejected immediately, running jobs stop at their next checkpoint and
// export their state. Poll (or Wait) until the job reports "migrated",
// then fetch the exported state with Snapshot.
func (c *Client) Migrate(ctx context.Context, id string, opts ...Option) (*Job, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	var j Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/migrate", nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Snapshot fetches a migrated job's exported state (a durable snapshot
// container); pass it to Resume on another server to continue the run.
// A job migrated while still pending has no snapshot (404): restart it
// from its spec instead.
func (c *Client) Snapshot(ctx context.Context, id string, opts ...Option) ([]byte, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{
			Code:   resp.StatusCode,
			Status: fmt.Sprintf("client: GET /v1/jobs/%s/snapshot: %s", id, resp.Status),
			Msg:    errBody(blob),
		}
	}
	return blob, nil
}

// Resume submits an exported snapshot; the server continues the run
// from its checkpoint (or serves the cached result if it already has
// one). A full queue returns a *RetryError, like Submit.
func (c *Client) Resume(ctx context.Context, snapshot []byte, opts ...Option) (*Job, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/resume", bytes.NewReader(snapshot))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		var after time.Duration
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			after = time.Duration(v) * time.Second
		}
		return nil, &RetryError{After: after, Msg: errBody(blob)}
	}
	if resp.StatusCode >= 400 {
		return nil, &StatusError{
			Code:   resp.StatusCode,
			Status: fmt.Sprintf("client: POST /v1/resume: %s", resp.Status),
			Msg:    errBody(blob),
		}
	}
	var j Job
	if err := json.Unmarshal(blob, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Evacuate asks the server to hand off all its work: pending jobs are
// ejected, running jobs checkpoint-migrate. Returns the affected job ids.
func (c *Client) Evacuate(ctx context.Context, opts ...Option) (ejected, migrating []string, err error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	var v struct {
		Ejected   []string `json:"ejected"`
		Migrating []string `json:"migrating"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/evacuate", nil, &v); err != nil {
		return nil, nil, err
	}
	return v.Ejected, v.Migrating, nil
}

// Wait polls a job until it is terminal or ctx expires; cancellation is
// honored promptly even mid-sleep. A 429 on a poll (an overloaded
// server shedding reads) is not terminal: Wait backs off — with the
// same floor as SubmitWait — and keeps polling. Options bound each poll
// round trip, not the overall wait.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration, opts ...Option) (*Job, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		j, err := c.Get(ctx, id, opts...)
		var re *RetryError
		if errors.As(err, &re) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(retryBackoff(re.After)):
				continue
			}
		}
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-tick.C:
		}
	}
}

// SubmitWait submits with 429 backoff (honoring Retry-After when the
// server sent one, never sleeping less than a jittered minimum, and
// never outliving ctx: the sleep selects on ctx.Done) and then waits
// for the job to finish: one call that behaves like a local run.
// Options bound each HTTP round trip.
func (c *Client) SubmitWait(ctx context.Context, sp Spec, poll time.Duration, opts ...Option) (*Job, error) {
	for {
		j, err := c.Submit(ctx, sp, opts...)
		var re *RetryError
		if errors.As(err, &re) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(retryBackoff(re.After)):
				continue
			}
		}
		if err != nil {
			return nil, err
		}
		if j.Terminal() {
			return j, nil
		}
		return c.Wait(ctx, j.ID, poll, opts...)
	}
}

// Events streams a job's SSE feed, invoking fn per event until the
// stream ends (after the terminal event), fn returns an error, or ctx
// expires. Returning io.EOF from fn stops the stream without error.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("client: events %s: %s: %s", id, resp.Status, errBody(blob))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && ev.Name != "":
			if err := fn(ev); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			ev = Event{}
		}
	}
	return sc.Err()
}

// Statsz fetches the service counters as loosely-typed JSON.
func (c *Client) Statsz(ctx context.Context, opts ...Option) (map[string]any, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	var v map[string]any
	if err := c.do(ctx, http.MethodGet, "/v1/statsz", nil, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// Healthz returns nil when the service is accepting work.
func (c *Client) Healthz(ctx context.Context, opts ...Option) error {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Metrics fetches the Prometheus text exposition from GET /metrics as
// raw bytes; the fleet coordinator parses it for load-aware routing.
func (c *Client) Metrics(ctx context.Context, opts ...Option) ([]byte, error) {
	ctx, cancel := apply(ctx, opts)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{
			Code:   resp.StatusCode,
			Status: fmt.Sprintf("client: GET /metrics: %s", resp.Status),
			Msg:    errBody(blob),
		}
	}
	return blob, nil
}
