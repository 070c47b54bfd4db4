// Package server implements slacksimd, the simulation-as-a-service HTTP
// layer over the slacksim engine. It composes the service subsystem:
//
//   - a bounded job queue (internal/service/jobqueue) providing admission
//     control — a full queue rejects with 429 + Retry-After so clients
//     back off instead of piling work onto the host;
//   - a content-addressed result cache (internal/service/resultcache)
//     keyed by spec.Key, so identical runs are served without
//     re-simulating, plus single-flight coalescing so N concurrent
//     identical submissions share one engine run. A result is encoded
//     once, when its run finishes; the cache, the store and every reply
//     carry those bytes unchanged;
//   - a worker pool (default GOMAXPROCS) that executes runs through the
//     public slacksim API with the stall watchdog armed, streaming the
//     engine's progress hook out to SSE subscribers;
//   - graceful drain: on SIGTERM the daemon stops admission, finishes
//     every accepted job, and only then exits, so no result is dropped.
//
// API (all compact JSON):
//
//	POST   /v1/jobs            submit a run spec; 202 + job, 200 on cache hit,
//	                           429 + Retry-After on a full queue
//	GET    /v1/jobs/{id}       job status, including the result when done
//	GET    /v1/jobs/{id}/events  SSE: progress events, then one terminal event
//	DELETE /v1/jobs/{id}       cancel (pending: immediate; running: interrupt)
//	POST   /v1/jobs/{id}/migrate   checkpoint-migrate: stop the run at its next
//	                           checkpoint and export its state (job → "migrated")
//	GET    /v1/jobs/{id}/snapshot  fetch a migrated job's exported state
//	POST   /v1/resume          submit an exported snapshot; the run continues
//	                           from its checkpoint instead of starting over
//	POST   /v1/evacuate        migrate every running job and eject every
//	                           pending one (a dying worker hands off its work)
//	GET    /v1/healthz         liveness ("ok", or "draining" with 503)
//	GET    /v1/statsz          queue/cache/worker counters
//	GET    /metrics            the same counters in Prometheus text format
//
// With Config.Cache backed by a persistent store and Config.Journal set,
// the daemon is crash-recoverable: results survive restarts, and jobs
// journaled as accepted are re-enqueued by Recover on the next start.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slacksim"
	"slacksim/internal/durable"
	"slacksim/internal/promtext"
	"slacksim/internal/service/jobqueue"
	"slacksim/internal/service/resultcache"
	"slacksim/internal/spec"
)

// RunContext hands a worker everything it needs to execute one job.
type RunContext struct {
	// JobID identifies the job being executed, so runners that keep
	// per-job state (the fleet coordinator's attempt history) can key it.
	JobID string
	// Spec is the normalized run spec.
	Spec spec.Spec
	// Interrupt cancels the run mid-flight when set true.
	Interrupt *atomic.Bool
	// OnProgress receives the engine's monotone progress snapshots.
	OnProgress func(slacksim.Progress)
	// ProgressEvery is the minimum cycle advance between snapshots.
	ProgressEvery int64
	// StallTimeout arms the parallel host's stall watchdog.
	StallTimeout time.Duration
	// SnapshotRequest, when set true, asks the run to export its state at
	// the next checkpoint boundary and stop (live migration).
	SnapshotRequest *atomic.Bool
	// OnSnapshot receives the exported state as a durable snapshot
	// container (spec + engine state, CRC-framed).
	OnSnapshot func(blob []byte)
	// Resume, when non-empty, is a durable snapshot container to continue
	// from instead of starting the run from the beginning.
	Resume []byte
}

// Runner executes one simulation. The default is RealRunner; tests
// substitute a gated fake to exercise queueing deterministically.
type Runner func(rc RunContext) (*slacksim.Results, error)

// RealRunner builds and runs the simulation through the public slacksim
// API, then verifies the workload's functional result when supported, so
// a run that silently corrupted target memory fails its job instead of
// poisoning the cache.
func RealRunner(rc RunContext) (*slacksim.Results, error) {
	cfg, err := rc.Spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.OnProgress = rc.OnProgress
	cfg.ProgressEvery = rc.ProgressEvery
	cfg.Interrupt = rc.Interrupt
	cfg.StallTimeout = rc.StallTimeout
	cfg.SnapshotRequest = rc.SnapshotRequest
	if rc.OnSnapshot != nil {
		onSnap := rc.OnSnapshot
		sp := rc.Spec
		cfg.OnSnapshot = func(state []byte) {
			if blob, err := durable.EncodeSnapshot(sp, state); err == nil {
				onSnap(blob)
			}
		}
	}
	sim, err := slacksim.New(cfg)
	if err != nil {
		return nil, err
	}
	var res slacksim.Results
	if len(rc.Resume) > 0 {
		snap, err := durable.DecodeSnapshot(rc.Resume)
		if err != nil {
			return nil, err
		}
		if snap.Key != rc.Spec.Key() {
			return nil, fmt.Errorf("snapshot is for spec %s, job is %s", snap.Key, rc.Spec.Key())
		}
		res, err = sim.Resume(snap.Engine)
		if err != nil {
			return nil, err
		}
	} else {
		res, err = sim.Run()
		if err != nil {
			return nil, err
		}
	}
	if err := sim.Verify(); err != nil {
		return nil, fmt.Errorf("functional check failed: %w", err)
	}
	return &res, nil
}

// Config parameterizes a Server.
type Config struct {
	// QueueDepth bounds the pending FIFO (default 64).
	QueueDepth int
	// Workers sizes the pool (default runtime.GOMAXPROCS(0)).
	Workers int
	// CacheSize bounds the result cache (default 128 entries).
	CacheSize int
	// ProgressEvery throttles the per-job progress stream (default 256
	// cycles — fine-grained enough that even sub-second runs emit events).
	ProgressEvery int64
	// StallTimeout arms each run's stall watchdog (default 30s).
	StallTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ for live CPU and
	// heap profiling of a busy daemon. Off by default: the profile
	// endpoints expose internals and cost cycles when scraped.
	Pprof bool
	// Runner overrides run execution (default RealRunner; tests use a
	// gated fake, the fleet façade dispatches to remote workers).
	Runner Runner
	// Detail, when non-nil, is asked for extra per-job information to
	// embed in the job view (the fleet façade returns the job's
	// per-attempt dispatch history). A nil return adds nothing.
	Detail func(jobID string) any
	// Cache overrides the result cache (default: an in-memory LRU of
	// CacheSize entries). It maps a spec key to the JSON encoding of the
	// run's slacksim.Results. slacksimd -data passes a
	// durable.ResultCache so results survive restarts.
	Cache resultcache.Interface[json.RawMessage]
	// Journal, when non-nil, receives every job lifecycle transition so a
	// restarted daemon can Recover the jobs it had accepted. slacksimd
	// -data passes a durable.Journal.
	Journal Journal
	// MaxSnapshots bounds retained migration snapshots (default 64; they
	// are transient handoff artifacts, fetched once by the peer).
	MaxSnapshots int
}

// Journal records job lifecycle transitions durably. durable.Journal
// implements it; JobSubmitted must be durable before returning so an
// acknowledged job is never forgotten.
type Journal interface {
	JobSubmitted(id, key string, sp spec.Spec)
	JobRunning(id string)
	JobFinished(id string, state jobqueue.State, errMsg string)
}

// nopJournal is the default Journal: a daemon without a data dir.
type nopJournal struct{}

func (nopJournal) JobSubmitted(string, string, spec.Spec)     {}
func (nopJournal) JobRunning(string)                          {}
func (nopJournal) JobFinished(string, jobqueue.State, string) {}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 256
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.Runner == nil {
		c.Runner = RealRunner
	}
	if c.Cache == nil {
		c.Cache = resultcache.New[json.RawMessage](c.CacheSize)
	}
	if c.Journal == nil {
		c.Journal = nopJournal{}
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = 64
	}
	return c
}

// Server is one slacksimd instance: queue + cache + worker pool + HTTP
// handlers. Create with New, serve Handler(), stop with Drain.
type Server struct {
	cfg   Config
	queue *jobqueue.Queue
	cache resultcache.Interface[json.RawMessage]

	// mu guards the single-flight table: spec key → in-flight job.
	mu       sync.Mutex
	inflight map[string]*jobqueue.Job

	// interrupts maps job ID → the run's interrupt flag.
	imu        sync.Mutex
	interrupts map[string]*atomic.Bool

	// smu guards the migration state: per-job snapshot-request flags,
	// exported snapshots (bounded FIFO), and pending resume blobs.
	smu       sync.Mutex
	snapReqs  map[string]*atomic.Bool // guarded by smu
	snapshots map[string][]byte       // guarded by smu
	snapOrder []string                // guarded by smu
	resumes   map[string][]byte       // guarded by smu

	coalesced atomic.Uint64 // submissions attached to an in-flight run
	runs      atomic.Uint64 // engine runs actually executed
	resumed   atomic.Uint64 // runs continued from a snapshot
	recovered atomic.Uint64 // jobs re-enqueued from the journal
	draining  atomic.Bool
	start     time.Time
	wg        sync.WaitGroup
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		queue:      jobqueue.New(cfg.QueueDepth),
		cache:      cfg.Cache,
		inflight:   make(map[string]*jobqueue.Job),
		interrupts: make(map[string]*atomic.Bool),
		snapReqs:   make(map[string]*atomic.Bool),
		snapshots:  make(map[string][]byte),
		resumes:    make(map[string][]byte),
		start:      time.Now(),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Recover re-enqueues the jobs a crashed daemon had accepted, as
// replayed from its journal: call it after New and before serving HTTP.
// Jobs whose results are already in the (persistent) cache are finished
// immediately without re-simulating; the rest run again from their spec
// — simulations are deterministic, so the results are identical to what
// the crashed run would have produced.
func (s *Server) Recover(pending []durable.PendingJob) int {
	n := 0
	for _, p := range pending {
		j, err := s.queue.Restore(p.ID, p.Key, p.Spec)
		if err != nil {
			continue
		}
		s.mu.Lock()
		if _, ok := s.inflight[p.Key]; !ok {
			s.inflight[p.Key] = j
		}
		s.mu.Unlock()
		s.imu.Lock()
		s.interrupts[j.ID] = new(atomic.Bool)
		s.imu.Unlock()
		s.smu.Lock()
		s.snapReqs[j.ID] = new(atomic.Bool)
		s.smu.Unlock()
		s.recovered.Add(1)
		n++
	}
	return n
}

// worker pulls jobs until the queue closes and drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, err := s.queue.Next()
		if err != nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one admitted job and retires it.
func (s *Server) runJob(j *jobqueue.Job) {
	sp := j.Payload.(spec.Spec)
	s.cfg.Journal.JobRunning(j.ID)

	// A recovered job may already have its result in the persistent
	// store (the crash hit between the result write and the journal's
	// terminal record); serve it without re-simulating.
	if res, ok := s.cache.Get(j.Key); ok {
		s.retire(j, res, nil)
		return
	}

	s.imu.Lock()
	intr := s.interrupts[j.ID]
	s.imu.Unlock()
	if intr == nil {
		intr = new(atomic.Bool)
	}
	s.smu.Lock()
	snapReq := s.snapReqs[j.ID]
	resume := s.resumes[j.ID]
	delete(s.resumes, j.ID)
	s.smu.Unlock()
	if snapReq == nil {
		snapReq = new(atomic.Bool)
	}
	if len(resume) > 0 {
		s.resumed.Add(1)
	}
	res, err := s.cfg.Runner(RunContext{
		JobID:           j.ID,
		Spec:            sp,
		Interrupt:       intr,
		OnProgress:      func(p slacksim.Progress) { j.Publish(p) },
		ProgressEvery:   s.cfg.ProgressEvery,
		StallTimeout:    s.cfg.StallTimeout,
		SnapshotRequest: snapReq,
		OnSnapshot:      func(blob []byte) { s.keepSnapshot(j.ID, blob) },
		Resume:          resume,
	})
	s.runs.Add(1)
	// The result's one encoding: cached, stored and spliced into every
	// reply as it is.
	var blob json.RawMessage
	if err == nil {
		if blob, err = json.Marshal(res); err == nil {
			s.cache.Put(j.Key, blob)
		} else {
			err = fmt.Errorf("encoding result: %w", err)
		}
	}
	if errors.Is(err, slacksim.ErrInterrupted) {
		err = fmt.Errorf("%w: %v", jobqueue.ErrCancelled, err)
	}
	if errors.Is(err, slacksim.ErrSnapshotted) {
		err = fmt.Errorf("%w: state exported at checkpoint", jobqueue.ErrMigrated)
	}
	s.retire(j, blob, err)
}

// retire releases a job's bookkeeping and finishes it with the result's
// encoding (nil when err is set).
func (s *Server) retire(j *jobqueue.Job, blob json.RawMessage, err error) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.mu.Unlock()
	s.imu.Lock()
	delete(s.interrupts, j.ID)
	s.imu.Unlock()
	s.smu.Lock()
	delete(s.snapReqs, j.ID)
	s.smu.Unlock()
	s.queue.Finish(j, blob, err)
	s.cfg.Journal.JobFinished(j.ID, j.State(), j.Err())
}

// keepSnapshot retains one exported migration snapshot, evicting the
// oldest past the bound.
func (s *Server) keepSnapshot(jobID string, blob []byte) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if _, ok := s.snapshots[jobID]; !ok {
		s.snapOrder = append(s.snapOrder, jobID)
		for len(s.snapOrder) > s.cfg.MaxSnapshots {
			delete(s.snapshots, s.snapOrder[0])
			s.snapOrder = s.snapOrder[1:]
		}
	}
	s.snapshots[jobID] = blob
}

// Drain gracefully stops the server: admission is closed (POST returns
// 503, healthz reports draining), every already-accepted job runs to
// completion, and the worker pool exits. It returns ctx's error if the
// deadline expires first — results of jobs finished by then are still
// retrievable.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	if err := s.queue.Drain(ctx); err != nil {
		return err
	}
	s.wg.Wait()
	return nil
}

// jobView is the wire representation of a job, less its result: a done
// job's reply carries the result's stored encoding as a last "result"
// member (see encodeView).
type jobView struct {
	ID        string             `json:"id"`
	State     string             `json:"state"`
	Key       string             `json:"key"`
	Spec      spec.Spec          `json:"spec"`
	Cached    bool               `json:"cached,omitempty"`
	Coalesced bool               `json:"coalesced,omitempty"`
	Progress  *slacksim.Progress `json:"progress,omitempty"`
	Error     string             `json:"error,omitempty"`
	// Detail carries runner-specific extras (the fleet façade's
	// per-attempt dispatch history).
	Detail any `json:"detail,omitempty"`
}

// encodedView is a job's compact JSON reply in two parts: the view's own
// fields, encoded per reply, and a done job's result, the encoding made
// when its run finished. No reply re-encodes a result.
type encodedView struct {
	head   []byte
	result json.RawMessage
}

// writeTo writes the reply: head, with the result spliced in as its last
// member when there is one.
func (e encodedView) writeTo(w io.Writer) {
	if len(e.result) == 0 {
		_, _ = w.Write(e.head)
		return
	}
	_, _ = w.Write(e.head[:len(e.head)-1])
	_, _ = io.WriteString(w, `,"result":`)
	_, _ = w.Write(e.result)
	_, _ = io.WriteString(w, "}")
}

// encodeView encodes job j's view for a reply.
func (s *Server) encodeView(j *jobqueue.Job, cached, coalesced bool) (encodedView, error) {
	v := jobView{
		ID:        j.ID,
		State:     j.State().String(),
		Key:       j.Key,
		Spec:      j.Payload.(spec.Spec),
		Cached:    cached,
		Coalesced: coalesced,
	}
	if s.cfg.Detail != nil {
		v.Detail = s.cfg.Detail(j.ID)
	}
	if p, ok := j.LastEvent().(slacksim.Progress); ok {
		v.Progress = &p
	}
	var e encodedView
	if j.State().Terminal() {
		if res, err := j.Result(); err != nil {
			v.Error = err.Error()
		} else {
			e.result, _ = res.(json.RawMessage)
		}
	}
	var err error
	e.head, err = json.Marshal(v)
	return e, err
}

// writeView replies with a job's view.
func (s *Server) writeView(w http.ResponseWriter, code int, j *jobqueue.Job, cached, coalesced bool) {
	e, err := s.encodeView(j, cached, coalesced)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding job %s: %v", j.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	e.writeTo(w)
	_, _ = io.WriteString(w, "\n")
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/jobs/{id}/migrate", s.handleMigrate)
	mux.HandleFunc("GET /v1/jobs/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/resume", s.handleResume)
	mux.HandleFunc("POST /v1/evacuate", s.handleEvacuate)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Pprof {
		// net/http/pprof registers only on http.DefaultServeMux; route the
		// prefix to its index handler, which dispatches to the others.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBodyErr answers a request body that could not be read or decoded:
// 413 when it ran past its http.MaxBytesReader cap, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, mbe.Limit)
		return
	}
	writeErr(w, http.StatusBadRequest, "bad %s: %v", what, err)
}

// maxSpecBody bounds POST /v1/jobs bodies. A spec is a few hundred bytes
// unless it carries an inline trace; the largest trace the repository's
// tools record (fft at scale 4 on 8 cores) is 434 KB, 578 KB in base64,
// and this cap leaves room for one about 28 times that.
const maxSpecBody = 16 << 20

// handleSubmit admits one run spec: cache hit → an immediately-done job;
// identical run in flight → coalesce onto it; otherwise enqueue, or 429
// with Retry-After when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var sp spec.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody)).Decode(&sp); err != nil {
		writeBodyErr(w, "spec", err)
		return
	}
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := sp.Key()

	// The single-flight window: cache lookup, coalesce check, and enqueue
	// must be atomic or two identical concurrent submissions both miss.
	s.mu.Lock()
	if res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		j := s.queue.AddDone(key, sp, res)
		s.writeView(w, http.StatusOK, j, true, false)
		return
	}
	if j, ok := s.inflight[key]; ok {
		s.coalesced.Add(1)
		s.mu.Unlock()
		s.writeView(w, http.StatusAccepted, j, false, true)
		return
	}
	j, err := s.enqueueLocked(key, sp, nil)
	if err != nil {
		s.mu.Unlock()
		if errors.Is(err, jobqueue.ErrFull) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "queue full (depth %d); retry later", s.cfg.QueueDepth)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.inflight[key] = j
	s.mu.Unlock()
	s.cfg.Journal.JobSubmitted(j.ID, key, sp)
	s.writeView(w, http.StatusAccepted, j, false, false)
}

// enqueueLocked submits a job and registers its interrupt and
// snapshot-request flags and its resume snapshot, if any. It holds imu
// and smu across the submit, so a worker that takes the job at once
// (runJob reads all three under those locks) still finds them. The
// caller holds s.mu.
func (s *Server) enqueueLocked(key string, sp spec.Spec, resume []byte) (*jobqueue.Job, error) {
	s.imu.Lock()
	defer s.imu.Unlock()
	s.smu.Lock()
	defer s.smu.Unlock()
	j, err := s.queue.Submit(key, sp)
	if err != nil {
		return nil, err
	}
	s.interrupts[j.ID] = new(atomic.Bool)
	s.snapReqs[j.ID] = new(atomic.Bool)
	if len(resume) > 0 {
		s.resumes[j.ID] = resume
	}
	return j, nil
}

// maxSnapshotBody bounds POST /v1/resume bodies (a snapshot is the full
// serialized machine state, so allow a generous but finite size).
const maxSnapshotBody = 256 << 20

// handleResume admits a run continued from an exported snapshot. The
// snapshot container carries the spec; if the result is already cached
// the job completes immediately, and an identical run in flight is
// coalesced onto, exactly as for a fresh submission.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		writeBodyErr(w, "snapshot", err)
		return
	}
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad snapshot: %v", err)
		return
	}
	sp := snap.Spec
	key := snap.Key

	s.mu.Lock()
	if res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		j := s.queue.AddDone(key, sp, res)
		s.writeView(w, http.StatusOK, j, true, false)
		return
	}
	if j, ok := s.inflight[key]; ok {
		s.coalesced.Add(1)
		s.mu.Unlock()
		s.writeView(w, http.StatusAccepted, j, false, true)
		return
	}
	j, err := s.enqueueLocked(key, sp, blob)
	if err != nil {
		s.mu.Unlock()
		if errors.Is(err, jobqueue.ErrFull) {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "queue full (depth %d); retry later", s.cfg.QueueDepth)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.inflight[key] = j
	s.mu.Unlock()
	// Journaled like any admission: if the daemon crashes before the run
	// finishes, the recovered job restarts from its spec (the snapshot is
	// not persisted — determinism makes the restart merely slower, never
	// wrong).
	s.cfg.Journal.JobSubmitted(j.ID, key, sp)
	s.writeView(w, http.StatusAccepted, j, false, false)
}

// handleMigrate asks a job to stop at its next checkpoint and export its
// state. Pending jobs are ejected immediately (no state to export — the
// spec alone restarts them elsewhere); running jobs get their
// snapshot-request flag raised and report "migrated" once the engine
// reaches a checkpoint boundary; terminal jobs are left as they are.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.queue.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	switch err := s.queue.Eject(id); {
	case err == nil:
		s.mu.Lock()
		if s.inflight[j.Key] == j {
			delete(s.inflight, j.Key)
		}
		s.mu.Unlock()
		s.imu.Lock()
		delete(s.interrupts, id)
		s.imu.Unlock()
		s.smu.Lock()
		delete(s.snapReqs, id)
		s.smu.Unlock()
		s.cfg.Journal.JobFinished(id, jobqueue.Migrated, jobqueue.ErrMigrated.Error())
		s.writeView(w, http.StatusOK, j, false, false)
	case errors.Is(err, jobqueue.ErrNotCancellable) && j.State() == jobqueue.Running:
		s.smu.Lock()
		req := s.snapReqs[id]
		s.smu.Unlock()
		if req == nil {
			writeErr(w, http.StatusConflict, "job has no snapshot channel")
			return
		}
		req.Store(true)
		s.writeView(w, http.StatusAccepted, j, false, false)
	case errors.Is(err, jobqueue.ErrNotCancellable):
		s.writeView(w, http.StatusOK, j, false, false)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// handleSnapshot serves a migrated job's exported state.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Get(id); !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	s.smu.Lock()
	blob, ok := s.snapshots[id]
	s.smu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "job has no exported snapshot")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// handleEvacuate checkpoint-migrates the whole worker: every pending job
// is ejected and every running job is asked to export at its next
// checkpoint. The response lists the affected job ids; each job's
// snapshot (for jobs that were running) becomes fetchable as it lands.
func (s *Server) handleEvacuate(w http.ResponseWriter, r *http.Request) {
	var ejected, migrating []string
	s.mu.Lock()
	inflight := make([]*jobqueue.Job, 0, len(s.inflight))
	for _, j := range s.inflight {
		inflight = append(inflight, j)
	}
	s.mu.Unlock()
	for _, j := range inflight {
		switch err := s.queue.Eject(j.ID); {
		case err == nil:
			s.mu.Lock()
			if s.inflight[j.Key] == j {
				delete(s.inflight, j.Key)
			}
			s.mu.Unlock()
			s.imu.Lock()
			delete(s.interrupts, j.ID)
			s.imu.Unlock()
			s.smu.Lock()
			delete(s.snapReqs, j.ID)
			s.smu.Unlock()
			s.cfg.Journal.JobFinished(j.ID, jobqueue.Migrated, jobqueue.ErrMigrated.Error())
			ejected = append(ejected, j.ID)
		case errors.Is(err, jobqueue.ErrNotCancellable) && j.State() == jobqueue.Running:
			s.smu.Lock()
			req := s.snapReqs[j.ID]
			s.smu.Unlock()
			if req != nil {
				req.Store(true)
				migrating = append(migrating, j.ID)
			}
		}
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"ejected":   ejected,
		"migrating": migrating,
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeView(w, http.StatusOK, j, false, false)
}

// handleDelete cancels a job: pending jobs leave the queue immediately;
// running jobs get their engine interrupt raised and report "cancelling"
// until the run unwinds; terminal jobs are left as they are.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.queue.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	switch err := s.queue.Cancel(id); {
	case err == nil:
		// The job never reached a worker, so release its single-flight and
		// interrupt entries here (runJob would have done it otherwise).
		s.mu.Lock()
		if s.inflight[j.Key] == j {
			delete(s.inflight, j.Key)
		}
		s.mu.Unlock()
		s.imu.Lock()
		delete(s.interrupts, id)
		s.imu.Unlock()
		s.smu.Lock()
		delete(s.snapReqs, id)
		s.smu.Unlock()
		s.cfg.Journal.JobFinished(id, jobqueue.Cancelled, jobqueue.ErrCancelled.Error())
		s.writeView(w, http.StatusOK, j, false, false)
	case errors.Is(err, jobqueue.ErrNotCancellable) && j.State() == jobqueue.Running:
		s.imu.Lock()
		intr := s.interrupts[id]
		s.imu.Unlock()
		if intr != nil {
			intr.Store(true)
		}
		s.writeView(w, http.StatusAccepted, j, false, false)
	case errors.Is(err, jobqueue.ErrNotCancellable):
		// Already terminal; report the final state, idempotently.
		s.writeView(w, http.StatusOK, j, false, false)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// statsView is /v1/statsz's body.
type statsView struct {
	UptimeSeconds float64           `json:"uptime_s"`
	Workers       int               `json:"workers"`
	Draining      bool              `json:"draining"`
	Runs          uint64            `json:"runs"`
	Coalesced     uint64            `json:"coalesced"`
	Resumed       uint64            `json:"resumed,omitempty"`
	Recovered     uint64            `json:"recovered,omitempty"`
	Queue         jobqueue.Stats    `json:"queue"`
	Cache         resultcache.Stats `json:"cache"`
	// Store reports the persistent result store, when one backs the cache.
	Store *durable.StoreStats `json:"store,omitempty"`
}

// storeStatser is implemented by caches backed by a persistent store
// (durable.ResultCache); the server surfaces its stats when present.
type storeStatser interface {
	StoreStats() durable.StoreStats
}

func (s *Server) storeStats() *durable.StoreStats {
	if ss, ok := s.cache.(storeStatser); ok {
		st := ss.StoreStats()
		return &st
	}
	return nil
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsView{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		Draining:      s.draining.Load(),
		Runs:          s.runs.Load(),
		Coalesced:     s.coalesced.Load(),
		Resumed:       s.resumed.Load(),
		Recovered:     s.recovered.Load(),
		Queue:         s.queue.Stats(),
		Cache:         s.cache.Stats(),
		Store:         s.storeStats(),
	})
}

// WriteMetrics renders the service counters in the Prometheus text
// exposition format. The fleet coordinator scrapes exactly these names
// (queue depth, jobs in flight, capacity) for load-aware routing, and
// any metrics stack can scrape GET /metrics directly.
func (s *Server) WriteMetrics(w io.Writer) error {
	q := s.queue.Stats()
	ca := s.cache.Stats()
	p := promtext.NewWriter(w)
	p.Gauge("slacksimd_up", "whether the service is accepting work (0 while draining)", boolGauge(!s.draining.Load()))
	p.Gauge("slacksimd_uptime_seconds", "seconds since the service started", time.Since(s.start).Seconds())
	p.Gauge("slacksimd_workers", "size of the simulation worker pool", float64(s.cfg.Workers))
	p.Gauge("slacksimd_queue_depth", "pending jobs waiting for a worker", float64(q.Depth))
	p.Gauge("slacksimd_queue_capacity", "admission bound of the pending queue", float64(q.Capacity))
	p.Gauge("slacksimd_jobs_running", "jobs currently executing", float64(q.Running))
	p.Counter("slacksimd_jobs_submitted_total", "jobs admitted to the queue", float64(q.Submitted))
	p.Counter("slacksimd_jobs_rejected_total", "submissions rejected by backpressure", float64(q.Rejected))
	p.Counter("slacksimd_jobs_completed_total", "jobs finished successfully", float64(q.Done))
	p.Counter("slacksimd_jobs_failed_total", "jobs finished in error", float64(q.Failed))
	p.Counter("slacksimd_jobs_cancelled_total", "jobs cancelled before completion", float64(q.Cancelled))
	p.Counter("slacksimd_runs_total", "engine runs actually executed", float64(s.runs.Load()))
	p.Counter("slacksimd_coalesced_total", "submissions attached to an in-flight identical run", float64(s.coalesced.Load()))
	p.Gauge("slacksimd_result_cache_entries", "entries in the result cache", float64(ca.Entries))
	p.Gauge("slacksimd_result_cache_capacity", "capacity of the result cache", float64(ca.Capacity))
	p.Counter("slacksimd_result_cache_hits_total", "result cache hits", float64(ca.Hits))
	p.Counter("slacksimd_result_cache_misses_total", "result cache misses", float64(ca.Misses))
	p.Counter("slacksimd_result_cache_evictions_total", "result cache evictions", float64(ca.Evictions))
	p.Counter("slacksimd_jobs_migrated_total", "jobs checkpoint-migrated off this worker", float64(q.Migrated))
	p.Counter("slacksimd_jobs_restored_total", "jobs re-enqueued from the crash journal", float64(q.Restored))
	p.Counter("slacksimd_runs_resumed_total", "runs continued from a snapshot", float64(s.resumed.Load()))
	if st := s.storeStats(); st != nil {
		p.Gauge("slacksimd_store_entries", "keys in the persistent result store", float64(st.Entries))
		p.Gauge("slacksimd_store_segments", "immutable segment files in the store", float64(st.Segments))
		p.Gauge("slacksimd_store_wal_bytes", "bytes in the store's write-ahead log", float64(st.WALBytes))
		p.Counter("slacksimd_store_compactions_total", "WAL-to-segment compactions", float64(st.Compactions))
		p.Counter("slacksimd_store_torn_tails_total", "torn log tails truncated during recovery", float64(st.TornTails))
	}
	return p.Err()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

// handleEvents streams a job's progress as Server-Sent Events: zero or
// more "progress" events (the latest known snapshot is replayed on
// attach, so every subscriber sees at least one before completion of a
// live run) followed by exactly one terminal event named after the final
// state ("done", "failed", "cancelled") carrying the full job view.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(event string, data encodedView) {
		fmt.Fprintf(w, "event: %s\ndata: ", event)
		data.writeTo(w)
		_, _ = io.WriteString(w, "\n\n")
		fl.Flush()
	}
	progress := func(p slacksim.Progress) {
		if data, err := json.Marshal(p); err == nil {
			send("progress", encodedView{head: data})
		}
	}
	terminal := func() {
		if data, err := s.encodeView(j, false, false); err == nil {
			send(j.State().String(), data)
		}
	}

	// Subscribe before reading state so no event can slip between the
	// check and the subscription; replay the latest snapshot on attach.
	events, cancel := j.Subscribe(16)
	defer cancel()
	if p, ok := j.LastEvent().(slacksim.Progress); ok {
		progress(p)
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				// Terminal: emit the final event and end the stream.
				terminal()
				return
			}
			if p, ok := ev.(slacksim.Progress); ok {
				progress(p)
			}
		case <-j.Done():
			// Drain any buffered progress, then terminate. The subscriber
			// channel closes shortly after Done; loop around to catch it.
			select {
			case ev, ok := <-events:
				if ok {
					if p, ok := ev.(slacksim.Progress); ok {
						progress(p)
					}
					continue
				}
			default:
			}
			terminal()
			return
		case <-r.Context().Done():
			return
		}
	}
}
