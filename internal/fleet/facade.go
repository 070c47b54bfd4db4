package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"slacksim"
	"slacksim/internal/promtext"
	"slacksim/internal/service/server"
)

// FacadeConfig parameterizes a fleet coordinator daemon.
type FacadeConfig struct {
	// Server configures the job-facing layer (queue depth, cache size,
	// worker-pool size = max concurrent dispatches). Runner and Detail
	// are owned by the façade and must be left nil.
	Server server.Config
	// Coordinator configures routing and retries.
	Coordinator CoordinatorConfig
	// Registry configures health probing.
	Registry RegistryConfig
	// InterruptPoll is how often a dispatch checks its job's interrupt
	// flag (default 20ms).
	InterruptPoll time.Duration
}

// Facade is the fleet coordinator daemon: a service/server instance
// whose runner dispatches through a Coordinator instead of simulating
// locally. It therefore speaks the exact /v1/jobs API of a single
// slacksimd — spec validation, result caching, single-flight
// coalescing, 429 backpressure, SSE terminal events, graceful drain —
// so slacksim/client, cmd/sweep, and cmd/experiments work against a
// fleet unchanged. On top it adds /v1/fleet/* membership endpoints and
// fleet-aggregate /metrics.
//
// Job progress is not relayed from workers: a fleet job's SSE stream
// carries only the terminal event. Results are identical to local runs
// because both sides execute the same canonical spec.
type Facade struct {
	cfg   FacadeConfig
	srv   *server.Server
	coord *Coordinator
	reg   *Registry
	stop  context.CancelFunc
}

// NewFacade builds the daemon and starts its health-probe loop.
func NewFacade(cfg FacadeConfig) *Facade {
	if cfg.InterruptPoll <= 0 {
		cfg.InterruptPoll = 20 * time.Millisecond
	}
	reg := NewRegistry(cfg.Registry)
	coord := NewCoordinator(reg, cfg.Coordinator)
	f := &Facade{cfg: cfg, coord: coord, reg: reg}

	sc := cfg.Server
	sc.Runner = f.runner
	sc.Detail = func(jobID string) any {
		if at := coord.Attempts(jobID); len(at) > 0 {
			return map[string]any{"attempts": at}
		}
		return nil
	}
	f.srv = server.New(sc)

	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	reg.Start(ctx)
	return f
}

// Coordinator exposes the routing layer (tests, embedding callers).
func (f *Facade) Coordinator() *Coordinator { return f.coord }

// Registry exposes fleet membership.
func (f *Facade) Registry() *Registry { return f.reg }

// Server exposes the underlying job-facing server.
func (f *Facade) Server() *server.Server { return f.srv }

// runner is the server's execution hook: it bridges the job's interrupt
// flag to a context and hands the spec to the coordinator.
func (f *Facade) runner(rc server.RunContext) (*slacksim.Results, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		tick := time.NewTicker(f.cfg.InterruptPoll)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if rc.Interrupt != nil && rc.Interrupt.Load() {
					cancel()
					return
				}
			}
		}
	}()
	res, err := f.coord.Do(ctx, rc.JobID, rc.Spec)
	if err != nil && errors.Is(err, context.Canceled) && rc.Interrupt != nil && rc.Interrupt.Load() {
		return nil, slacksim.ErrInterrupted
	}
	return res, err
}

// Drain gracefully stops the daemon: admission closes, accepted jobs
// finish their dispatches, then the probe loop stops.
func (f *Facade) Drain(ctx context.Context) error {
	err := f.srv.Drain(ctx)
	f.stop()
	return err
}

// Handler returns the daemon's routes: the full single-node /v1 job API
// plus fleet membership and fleet-level metrics.
func (f *Facade) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", f.srv.Handler())
	// Exact patterns beat the "/" catch-all, so these override the inner
	// server's /metrics with the fleet-aggregate version.
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("POST /v1/fleet/workers", f.handleJoin)
	mux.HandleFunc("DELETE /v1/fleet/workers/{id}", f.handleLeave)
	mux.HandleFunc("GET /v1/fleet/workers", f.handleWorkers)
	mux.HandleFunc("POST /v1/fleet/workers/{id}/evacuate", f.handleEvacuate)
	return mux
}

// handleEvacuate live-migrates a worker's jobs onto the rest of the
// fleet: the worker stops receiving dispatches, its running jobs export
// at their next checkpoint, and the coordinator resumes them elsewhere.
func (f *Facade) handleEvacuate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	w.Header().Set("Content-Type", "application/json")
	if err := f.coord.Evacuate(r.Context(), id); err != nil {
		w.WriteHeader(http.StatusBadGateway)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "evacuating", "id": id})
}

// joinRequest is POST /v1/fleet/workers' body.
type joinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

func (f *Facade) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"bad join request: %v"}`, err), http.StatusBadRequest)
		return
	}
	if req.ID == "" || req.URL == "" {
		http.Error(w, `{"error":"join requires id and url"}`, http.StatusBadRequest)
		return
	}
	f.reg.Add(req.ID, req.URL, DialWorker(req.URL))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "joined", "id": req.ID})
}

func (f *Facade) handleLeave(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok := f.reg.Remove(id)
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "no such worker"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "left", "id": id})
}

func (f *Facade) handleWorkers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"workers": f.reg.Snapshot()})
}

// WriteMetrics emits the coordinator's own service counters (its queue,
// cache, and dispatch pool, under slacksimd_*) followed by the fleet
// aggregates scraped from the workers (under slacksimfleet_*).
func (f *Facade) WriteMetrics(w io.Writer) error {
	if err := f.srv.WriteMetrics(w); err != nil {
		return err
	}
	a := f.reg.Aggregate()
	p := promtext.NewWriter(w)
	p.Gauge("slacksimfleet_workers", "workers registered with the fleet", float64(a.Workers))
	p.Gauge("slacksimfleet_workers_healthy", "registered workers passing health probes", float64(a.Healthy))
	p.Gauge("slacksimfleet_queue_depth", "pending jobs summed across workers", float64(a.QueueDepth))
	p.Gauge("slacksimfleet_jobs_running", "running jobs summed across workers", float64(a.Running))
	p.Gauge("slacksimfleet_capacity", "simulation worker-pool slots summed across workers", float64(a.Capacity))
	p.Counter("slacksimfleet_result_cache_hits_total", "result cache hits summed across workers", float64(a.CacheHits))
	p.Counter("slacksimfleet_result_cache_misses_total", "result cache misses summed across workers", float64(a.CacheMisses))
	return p.Err()
}

func (f *Facade) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = f.WriteMetrics(w)
}
