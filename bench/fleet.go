package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"slacksim/client"
	"slacksim/internal/fleet"
	"slacksim/internal/service/server"
	"slacksim/internal/spec"
)

// localCheckEvery: one finished job in this many is simulated again
// in-process after the timed phase and compared byte for byte with the
// result the fleet returned. Every job must finish "done", which means
// the worker verified the workload's functional result.
const localCheckEvery = 16

// fleetClients is fleet-cold's closed-loop client count: two per worker
// slot. With one client per slot a worker idles whenever both clients'
// specs hash to the other one, and throughput and latency follow the
// luck of the hashes (run-to-run spread above 15 %); with two per slot
// both workers stay busy and the numbers are steady.
const fleetClients = 2 * numWorkers

// fleetProbe is the coordinator's health-probe and load-scrape interval.
const fleetProbe = 25 * time.Millisecond

// fleetState is fleet-cold after set-up: a coordinator and numWorkers
// one-slot slacksimd nodes, all on loopback HTTP.
type fleetState struct {
	coord   *node
	facade  *fleet.Facade
	workers []*node
	ids     []string
}

func setupFleet(env *runEnv) (*fleetState, error) {
	st := &fleetState{}
	ok := false
	defer func() {
		if !ok {
			st.stop()
		}
	}()
	for i := 0; i < numWorkers; i++ {
		dir, err := env.subdir("worker")
		if err != nil {
			return nil, err
		}
		n, err := startNode(dir, 1, 128)
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, n)
		st.ids = append(st.ids, fmt.Sprintf("w%d", i+1))
	}
	// cmd/slacksimfleet's defaults, except the probe interval. The
	// coordinator spills on the load its last probe scraped. On the 2 s
	// default that sample is a hundred jobs old, the spill herds jobs onto
	// one worker, and throughput wanders between 45 and 75 jobs/s from run
	// to run; scraped every 25 ms it keeps both workers busy at a steady
	// 85 jobs/s (README.md, "Defects found").
	st.facade = fleet.NewFacade(fleet.FacadeConfig{
		Server:      server.Config{QueueDepth: 256, Workers: 64, CacheSize: 512, StallTimeout: -1},
		Coordinator: fleet.CoordinatorConfig{MaxAttempts: 4, SpillFactor: 2.0},
		Registry:    fleet.RegistryConfig{ProbeInterval: fleetProbe},
	})
	st.coord = &node{}
	if err := st.coord.listen(st.facade.Handler()); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Workers are registered with the production HTTP transport, but
	// polled at the client's interval: DialWorker's 50 ms default rounds
	// every job's latency up to a multiple of 50 ms, which leaves the
	// latency percentiles blind to everything else (README.md, "Defects
	// found"). The traced run measures the default beside this.
	for i, w := range st.workers {
		st.facade.Registry().Add(st.ids[i], w.url, fleet.NewHTTPTransport(client.New(w.url), clientPoll))
	}
	st.facade.Registry().ProbeOnce(ctx)
	for _, w := range st.facade.Registry().Snapshot() {
		if !w.Healthy {
			return nil, fmt.Errorf("worker %s is not healthy after its first probe", w.ID)
		}
	}
	blocks := warmBlocks
	if env.smoke {
		blocks = 1
	}
	if err := st.warm(env.seed, blocks); err != nil {
		return nil, err
	}
	ok = true
	return st, nil
}

// warmBlocks is how many blocks of the 24 spec shapes set-up sends
// through the fleet. Until the first load scrape lands, jobs go where
// their hash says, so a single block's time swings with the luck of 24
// hashes; three blocks average it out.
const warmBlocks = 3

// warm sends blocks of every spec shape through the fleet, so
// that the timed phase starts with every worker's machine pool, allocator
// and store warm.
func (st *fleetState) warm(seed int64, blocks int) error {
	stream := newFleetStream(seed, streamFleetWarm)
	specs := make(chan spec.Spec, blocks*len(fleetKinds)*len(fleetSchemes))
	for i := 0; i < cap(specs); i++ {
		specs <- stream.next()
	}
	close(specs)
	errs := make([]error, fleetClients)
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, hangUp := dial(st.coord.url)
			defer hangUp()
			for sp := range specs {
				j, err := cl.SubmitWait(context.Background(), sp, clientPoll)
				if err == nil && j.State != "done" {
					err = fmt.Errorf("state %s: %s", j.State, j.Error)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm block, %s/%s: %w", sp.Workload, sp.Scheme, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (st *fleetState) stop() {
	if st.facade != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st.facade.Drain(ctx)
		cancel()
	}
	if st.coord != nil && st.coord.hs != nil {
		st.coord.stop()
	}
	for _, w := range st.workers {
		w.stop()
	}
}

// fleetJob is one finished fleet job as the client saw it.
type fleetJob struct {
	spec    spec.Spec
	job     *client.Job
	at      time.Duration // finish time, from the start of the phase
	latency time.Duration
}

// driveFleet runs the closed-loop clients for d: each takes the next
// unique spec from the shared stream and waits for its result.
func (st *fleetState) driveFleet(stream *fleetStream, d time.Duration, chk *checker) ([]fleetJob, time.Duration) {
	var mu sync.Mutex
	var done []fleetJob
	next := func() spec.Spec {
		mu.Lock()
		defer mu.Unlock()
		return stream.next()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, hangUp := dial(st.coord.url)
			defer hangUp()
			for time.Since(start) < d {
				sp := next()
				t0 := time.Now()
				j, err := cl.SubmitWait(context.Background(), sp, clientPoll)
				took := time.Since(t0)
				switch {
				case err != nil:
					chk.op(false, "fleet job %s/%s: %v", sp.Workload, sp.Scheme, err)
				case j.State != "done" || j.Result == nil:
					chk.op(false, "fleet job %s/%s: state %s: %s", sp.Workload, sp.Scheme, j.State, j.Error)
				case j.Cached || j.Coalesced:
					chk.op(false, "fleet job %s/%s: served from a cache, but every spec is unique", sp.Workload, sp.Scheme)
				default:
					chk.op(true, "")
					mu.Lock()
					done = append(done, fleetJob{spec: sp, job: j, at: time.Since(start), latency: took})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return done, time.Since(start)
}

// checkLocally re-simulates a sample of the finished jobs in-process and
// compares the results byte for byte.
func checkLocally(done []fleetJob, chk *checker) {
	for i := 0; i < len(done); i += localCheckEvery {
		chk.op(localResultEqual(done[i].spec, done[i].job), "fleet job %s/%s seed %d: result differs from a local run",
			done[i].spec.Workload, done[i].spec.Scheme, done[i].spec.Seed)
	}
}

func localResultEqual(sp spec.Spec, j *client.Job) bool {
	cfg, err := sp.Config()
	if err != nil {
		return false
	}
	res, _, err := runEngineJob(engineJob{name: "local", cfg: cfg})
	return err == nil && canonicalJSON(res) == canonicalJSON(*j.Result)
}

// fleetWindow is the slice length of fleet-cold's timed phase: fifty or
// more jobs each at the 50 ms dispatch poll.
const fleetWindow = 1.5

func fleetMetrics(done []fleetJob, window float64) map[string]float64 {
	jobs := make([]finished, len(done))
	for i, f := range done {
		jobs[i] = finished{at: f.at.Seconds(), latency: ms(f.latency), insts: f.job.Result.Committed}
	}
	return sliceMetrics(windows(jobs, window))
}

func measureFleet(env *runEnv, chk *checker) (map[string]float64, error) {
	st, setupS, err := repeatSetup(func() (*fleetState, error) { return setupFleet(env) }, (*fleetState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	stream := newFleetStream(env.seed, streamFleet)
	if env.traced {
		return traceFleet(env, st, stream, chk)
	}
	done, _ := st.driveFleet(stream, env.duration(), chk)
	checkLocally(done, chk)
	env.note("jobs", len(done))
	values := fleetMetrics(done, env.window(fleetWindow))
	values["setup_s"] = setupS
	return values, nil
}

// attemptsOf decodes a coordinator job view's per-attempt dispatch
// history.
func attemptsOf(j *client.Job) []fleet.Attempt {
	var d struct {
		Attempts []fleet.Attempt `json:"attempts"`
	}
	if len(j.Detail) == 0 || json.Unmarshal(j.Detail, &d) != nil {
		return nil
	}
	return d.Attempts
}

// postOK issues a bodiless POST and requires a 2xx reply.
func postOK(url string) error {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}
