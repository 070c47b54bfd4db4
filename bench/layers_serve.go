package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"slacksim"
	"slacksim/client"
	"slacksim/internal/memtrace"
	"slacksim/internal/service/jobqueue"
	"slacksim/internal/service/resultcache"
	"slacksim/internal/spec"
	"slacksim/internal/synth"
)

// statszCounters are the /v1/statsz fields the traced run reads.
type statszCounters struct {
	Runs      float64 `json:"runs"`
	Coalesced float64 `json:"coalesced"`
	Queue     struct {
		Rejected float64 `json:"rejected"`
		Running  float64 `json:"running"`
	} `json:"queue"`
	Cache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
	Store struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"store"`
}

func fetchStatsz(url string) (statszCounters, error) {
	var s statszCounters
	resp, err := http.Get(url + "/v1/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("statsz: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// traceServe is serve-hot's traced run. A quarter of the time each goes
// to: one plain client; one client whose every request is attributed to
// the tier that served it; both clients with the server's own counters
// read before and after; and the layer replays.
func traceServe(env *runEnv, st *serveState, chk *checker) (map[string]float64, error) {
	out := map[string]float64{}
	quarter := env.duration() / 4

	plain := st.drive(st.streams(env.seed, 1), quarter, chk, nil)

	// The tier is read off the cache's and the store's own hit counters,
	// in-process, around each request: with one client nothing else
	// moves them.
	var memUs, diskUs []float64
	memHits, diskHits := st.node.cache.Stats().Hits, st.node.store.Stats().Hits
	tiered := st.drive(st.streams(env.seed+1, 1), quarter, chk, func(took time.Duration) {
		m, d := st.node.cache.Stats().Hits, st.node.store.Stats().Hits
		switch {
		case d > diskHits:
			diskUs = append(diskUs, float64(took)/1e3)
		case m > memHits:
			memUs = append(memUs, float64(took)/1e3)
		}
		memHits, diskHits = m, d
	})
	out["trace.overhead_pct"] = 100 * (plain.jobsPerS() - tiered.jobsPerS()) / plain.jobsPerS()
	env.note("trace_base_jobs_per_s", plain.jobsPerS())
	out["server.mem_hit_us_p50"] = percentile(sortedCopy(memUs), 50)
	out["server.disk_hit_us_p50"] = percentile(sortedCopy(diskUs), 50)

	before, err := fetchStatsz(st.node.url)
	if err != nil {
		return nil, err
	}
	both := st.drive(st.streams(env.seed, numClients), quarter, chk, nil)
	after, err := fetchStatsz(st.node.url)
	if err != nil {
		return nil, err
	}
	out["server.mem_hits"] = after.Cache.Hits - before.Cache.Hits
	out["server.disk_hits"] = after.Store.Hits - before.Store.Hits
	out["server.misses"] = after.Store.Misses - before.Store.Misses
	out["server.coalesced"] = after.Coalesced - before.Coalesced
	out["server.runs"] = after.Runs - before.Runs
	out["server.rejected_429"] = after.Queue.Rejected - before.Queue.Rejected
	out["server.latency_ms_p99"] = percentile(sortedCopy(both.latencies()), 99)
	env.note("p99_samples", len(both.jobs))

	if err := st.layerReplay(env, chk, out); err != nil {
		return nil, err
	}
	out["server.layer_sum_us"] = out["spec.decode_key_us"] + out["resultcache.get_ns"]/1e3 + out["server.encode_result_us"]
	out["server.http_residual_us"] = out["server.mem_hit_us_p50"] - out["server.layer_sum_us"]
	return out, nil
}

// perOp times fn over n operations and returns the mean cost of one in
// the unit that scale converts nanoseconds to (1 → ns, 1e3 → µs).
func perOp(n int, scale float64, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n) / scale
}

// layerReplay feeds serve-hot's request stream to each layer a cache hit
// passes through, one layer at a time, through that layer's public API.
func (st *serveState) layerReplay(env *runEnv, chk *checker, out map[string]float64) error {
	n := 20000
	if env.smoke {
		n = 200
	}
	stream := newRequestStream(env.seed, 0, len(st.cat))
	order := make([]int, n)
	for i := range order {
		order[i] = stream.next()
	}
	bodies := make([][]byte, len(st.cat))
	results := make([]*slacksim.Results, len(st.cat))
	for i, sp := range st.cat {
		bodies[i], _ = json.Marshal(sp)
		results[i] = new(slacksim.Results)
		if err := json.Unmarshal(st.want[i], results[i]); err != nil {
			return err
		}
	}

	// What handleSubmit does to a request body before it can look the
	// result up.
	out["spec.decode_key_us"] = perOp(n, 1e3, func(i int) {
		var sp spec.Spec
		if err := json.Unmarshal(bodies[order[i]], &sp); err != nil {
			chk.op(false, "spec decode: %v", err)
		}
		sp = sp.Normalize()
		if err := sp.Validate(); err != nil {
			chk.op(false, "spec validate: %v", err)
		}
		if sp.Key() != st.keys[order[i]] {
			chk.op(false, "spec %d: key changed between submissions", order[i])
		}
	})

	// The memory tier alone, sized as the server's.
	mem := resultcache.New[*slacksim.Results](len(st.cat) / 4)
	out["resultcache.put_ns"] = perOp(n, 1, func(i int) { mem.Put(st.keys[order[i]], results[order[i]]) })
	out["resultcache.get_ns"] = perOp(n, 1, func(i int) { mem.Get(st.keys[order[i]]) })

	// The disk tier alone, on the live store.
	out["durable.store_get_us"] = perOp(n, 1e3, func(i int) {
		if _, ok := st.node.store.Get(st.keys[order[i]]); !ok {
			chk.op(false, "store lost key of spec %d", order[i])
		}
	})

	// A job's trip through the queue: admitted, handed to a worker,
	// retired.
	q := jobqueue.New(64)
	out["jobqueue.submit_pop_us"] = perOp(n, 1e3, func(i int) {
		if _, err := q.Submit(st.keys[order[i]], st.cat[order[i]]); err != nil {
			chk.op(false, "jobqueue submit: %v", err)
			return
		}
		j, err := q.Next()
		if err != nil {
			chk.op(false, "jobqueue next: %v", err)
			return
		}
		q.Finish(j, results[order[i]], nil)
	})

	// The reply: the job view with its result, encoded as the server
	// encodes it (indented). Its size is read off real replies.
	var buf bytes.Buffer
	out["server.encode_result_us"] = perOp(n, 1e3, func(i int) {
		k := order[i]
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(client.Job{ID: "j1", State: "done", Key: st.keys[k], Spec: st.cat[k], Cached: true, Result: results[k]})
	})
	var sizes []float64
	for i := 0; i < len(st.cat) && i < 32; i++ {
		resp, err := http.Post(st.node.url+"/v1/jobs", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(body)))
	}
	out["server.result_bytes"] = median(sizes)

	return layerScenario(env, st.cat[0], chk, out)
}

// layerScenario gives the scenario-engine packages their numbers: program
// generation, trace encode and decode, and sampled simulation.
func layerScenario(env *runEnv, sp spec.Spec, chk *checker, out map[string]float64) error {
	reps := 50
	if env.smoke {
		reps = 3
	}
	// synth: compile the catalogue's first spec into per-core programs.
	out["synth.build_ms"] = timeMedian(reps, func() {
		w, err := synth.New(*sp.Synth)
		if err == nil {
			_, err = w.Programs(sp.Cores)
		}
		if err != nil {
			chk.op(false, "synth build: %v", err)
		}
	})

	// memtrace: record that spec's run, then encode and decode the trace.
	cfg, err := sp.Config()
	if err != nil {
		return err
	}
	rec := memtrace.NewRecorder(cfg.Cores, cfg.Workload)
	cfg.MemRecorder = rec
	if _, _, err := runEngineJob(engineJob{name: "record", cfg: cfg}); err != nil {
		return err
	}
	tr := rec.Trace()
	data, err := memtrace.Encode(tr)
	if err != nil {
		return err
	}
	mbPerS := func(msPerOp float64) float64 { return float64(len(data)) / 1e6 / (msPerOp / 1e3) }
	out["memtrace.encode_mb_s"] = mbPerS(timeMedian(reps, func() {
		if _, err := memtrace.Encode(tr); err != nil {
			chk.op(false, "memtrace encode: %v", err)
		}
	}))
	out["memtrace.decode_mb_s"] = mbPerS(timeMedian(reps, func() {
		got, err := memtrace.Decode(data)
		if err != nil || got.TotalEvents() != tr.TotalEvents() {
			chk.op(false, "memtrace decode: %v", err)
		}
	}))
	env.note("memtrace_bytes", len(data))

	// sampling: fft under cc, one interval in four detailed, against the
	// full cc run.
	scale := engineScale(env.workload)
	if env.smoke {
		scale = 1
	}
	full := slacksim.Config{Workload: "fft", Scale: scale, Cores: 8, Scheme: slacksim.Schemes.CC(), Seed: 1}
	gold, _, err := runEngineJob(engineJob{name: "sampling/full", cfg: full})
	if err != nil {
		return err
	}
	sampled := full
	sampled.Sampling = &slacksim.SamplingPlan{IntervalInsts: 2000, DetailEvery: 4, Confidence: 0.95}
	res, _, err := runEngineJob(engineJob{name: "sampling/sampled", cfg: sampled})
	if err != nil {
		return err
	}
	if r := res.Sampling; r == nil {
		chk.op(false, "sampled run carries no sampling report")
	} else {
		out["sampling.work_saved_pct"] = 100 * float64(r.FastForwardInsts) / float64(r.FastForwardInsts+r.DetailedInsts)
		d := r.EstimatedCycles - float64(gold.Cycles)
		if d < 0 {
			d = -d
		}
		out["sampling.err_pct"] = 100 * d / float64(gold.Cycles)
		chk.op(r.Within(gold.Cycles), "sampling: cc cycles %d outside the estimate %.0f ± %.0f", gold.Cycles, r.EstimatedCycles, r.HalfWidth)
	}
	return nil
}
