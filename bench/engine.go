package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"slacksim"
)

// engineScale is the kernels' input scale. Scale 2 (fft-512, lu-32,
// barnes-128, water-64 on 8 target cores) is large enough that a run is
// dominated by steady-state simulation and small enough that a 12 s run
// holds a dozen or more passes. engine-spec runs at scale 4: at scale 2
// its adaptive job rolls back only 11 to 18 times depending on the
// host-scheduling seed, and its time swings by 7 % with the seed; at
// scale 4 it rolls back about 70 times and the swing is 3 %.
func engineScale(workload string) int {
	if workload == "engine-spec" {
		return 4
	}
	return 2
}

// jobSpans are the wall-clock spans of one engine job, recorded by the
// benchmark around each public call.
type jobSpans struct {
	build, run, verify, release time.Duration
}

func (s jobSpans) total() time.Duration { return s.build + s.run + s.verify + s.release }

// runEngineJob executes one job through New → Run → Verify → Release, as
// the service's runner does, and returns its results and spans.
func runEngineJob(j engineJob) (slacksim.Results, jobSpans, error) {
	var sp jobSpans
	t0 := time.Now()
	sim, err := slacksim.New(j.cfg)
	if err != nil {
		return slacksim.Results{}, sp, fmt.Errorf("%s: new: %w", j.name, err)
	}
	t1 := time.Now()
	res, err := sim.Run()
	t2 := time.Now()
	if err != nil {
		sim.Release()
		return res, sp, fmt.Errorf("%s: run: %w", j.name, err)
	}
	verr := sim.Verify()
	t3 := time.Now()
	sim.Release()
	t4 := time.Now()
	sp = jobSpans{build: t1.Sub(t0), run: t2.Sub(t1), verify: t3.Sub(t2), release: t4.Sub(t3)}
	if verr != nil {
		return res, sp, fmt.Errorf("%s: functional check: %w", j.name, verr)
	}
	return res, sp, nil
}

// canonicalJSON renders Results with the fields that describe the
// simulating host zeroed; everything left describes the simulated
// machine and must repeat exactly where the engine promises determinism.
func canonicalJSON(r slacksim.Results) string {
	r.Host = ""
	r.WallClock = 0
	r.HostWorkUnits = 0
	r.Suspensions = 0
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// sameTiming is the cross-host cc equivalence internal/stress asserts:
// global time, every core's clock and commit count, the events served.
func sameTiming(a, b slacksim.Results) bool {
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.EventsServed != b.EventsServed || len(a.PerCore) != len(b.PerCore) {
		return false
	}
	for i := range a.PerCore {
		if a.PerCore[i].Cycles != b.PerCore[i].Cycles || a.PerCore[i].Committed != b.PerCore[i].Committed {
			return false
		}
	}
	return true
}

// engineRef is what set-up learned about one job, against which every
// timed run of it is checked.
type engineRef struct {
	res slacksim.Results
	// exact is the canonical Results every run on the deterministic host
	// must reproduce: the warm run's own.
	exact string
	// det is the deterministic host's run of a race-free cc job of the
	// parallel host, whose simulated timing should not depend on the host.
	det *slacksim.Results
}

type engineState struct {
	jobs []engineJob
	refs []engineRef
	// ccRuns counts the parallel host's race-free cc runs, ccMismatches
	// those whose timing differed from the deterministic host's. That is
	// counted, not gated: on two CPUs about one fft run in eight ends a
	// cycle or a few off (README.md, "Defects found"), and a gate that
	// fails at random would make every run of the benchmark a coin toss.
	ccRuns, ccMismatches int
}

// setupEngine generates the pass and runs it once untimed: the machine
// pool, workload compilation and allocator are warm afterwards, and each
// job's reference results are known.
func setupEngine(env *runEnv) (*engineState, error) {
	scale := engineScale(env.workload)
	if env.smoke {
		scale = 1
	}
	jobs, err := engineJobs(env.workload, env.seed, scale)
	if err != nil {
		return nil, err
	}
	st := &engineState{jobs: jobs, refs: make([]engineRef, len(jobs))}
	for i, j := range jobs {
		res, _, err := runEngineJob(j)
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		st.refs[i].res = res
		switch {
		case !j.cfg.Parallel:
			st.refs[i].exact = canonicalJSON(res)
		case j.raceFree && j.cfg.Scheme.Kind == slacksim.Schemes.CC().Kind:
			det := j
			det.cfg.Parallel = false
			det.cfg.Seed = 1
			dres, _, err := runEngineJob(det)
			if err != nil {
				return nil, fmt.Errorf("deterministic reference: %w", err)
			}
			st.refs[i].det = &dres
		}
	}
	return st, nil
}

// checkEngineJob applies the correctness gate to one finished job.
func (st *engineState) checkEngineJob(i int, res slacksim.Results, err error, chk *checker) {
	j, ref := st.jobs[i], st.refs[i]
	switch {
	case err != nil:
		chk.op(false, "%v", err)
	case res.Committed != ref.res.Committed:
		chk.op(false, "%s: committed %d, warm pass committed %d", j.name, res.Committed, ref.res.Committed)
	case ref.exact != "" && canonicalJSON(res) != ref.exact:
		chk.op(false, "%s: results differ from the warm pass\n got %s\nwant %s", j.name, canonicalJSON(res), ref.exact)
	default:
		chk.op(true, "")
		if ref.det != nil {
			st.ccRuns++
			if !sameTiming(res, *ref.det) {
				st.ccMismatches++
			}
		}
	}
}

// enginePass is one timed pass: every job once.
type enginePass struct {
	wall      time.Duration
	insts     uint64
	latencies []float64 // ms, one per job
	results   []slacksim.Results
	spans     []jobSpans
	mem       []memDelta
}

type memDelta struct {
	mallocs, bytes uint64
	pauseNs        uint64
}

// runPass executes every job once. With traced set it also reads the
// allocator's counters around each job; the spans themselves cost four
// clock reads and are always taken.
func (st *engineState) runPass(chk *checker, traced bool) enginePass {
	var p enginePass
	var before, after runtime.MemStats
	start := time.Now()
	for i, j := range st.jobs {
		if traced {
			runtime.ReadMemStats(&before)
		}
		res, sp, err := runEngineJob(j)
		if traced {
			runtime.ReadMemStats(&after)
			p.mem = append(p.mem, memDelta{
				mallocs: after.Mallocs - before.Mallocs,
				bytes:   after.TotalAlloc - before.TotalAlloc,
				pauseNs: after.PauseTotalNs - before.PauseTotalNs,
			})
		}
		st.checkEngineJob(i, res, err, chk)
		p.insts += res.Committed
		p.latencies = append(p.latencies, ms(sp.total()))
		p.results = append(p.results, res)
		p.spans = append(p.spans, sp)
	}
	p.wall = time.Since(start)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func passKips(p enginePass) float64 { return float64(p.insts) / 1e3 / p.wall.Seconds() }

// measureEngine sets up and measures one of the four engine workloads.
func measureEngine(env *runEnv, chk *checker) (map[string]float64, error) {
	st, setupS, err := repeatSetup(func() (*engineState, error) { return setupEngine(env) }, func(*engineState) {})
	if err != nil {
		return nil, err
	}
	if env.traced {
		return traceEngine(env, st, chk), nil
	}
	values := runEngine(env, st, chk)
	values["setup_s"] = setupS
	return values, nil
}

// runEngine measures an engine workload: passes back to back for the
// requested time, each pass one sample of every metric.
func runEngine(env *runEnv, st *engineState, chk *checker) map[string]float64 {
	var slices []slice
	start := time.Now()
	for {
		p := st.runPass(chk, false)
		slices = append(slices, slice{wall: p.wall.Seconds(), insts: p.insts, latencies: p.latencies})
		if time.Since(start) >= env.duration() {
			break
		}
	}
	env.note("passes", len(slices))
	env.note("jobs", len(slices)*len(st.jobs))
	return sliceMetrics(slices)
}

// traceEngine is the traced run of an engine workload: plain and traced
// passes alternate for half the requested time, then the workload's
// layer replays run.
func traceEngine(env *runEnv, st *engineState, chk *checker) map[string]float64 {
	out := map[string]float64{}
	var plain, traced []enginePass
	start := time.Now()
	for {
		plain = append(plain, st.runPass(chk, false))
		traced = append(traced, st.runPass(chk, true))
		if time.Since(start) >= env.duration()/2 {
			break
		}
	}
	wallOf := func(ps []enginePass) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = ms(p.wall)
		}
		return xs
	}
	plainMs, tracedMs := median(wallOf(plain)), median(wallOf(traced))
	out["trace.overhead_pct"] = 100 * (tracedMs - plainMs) / plainMs
	env.note("trace_base_pass_ms", plainMs)

	// Spans and counts, per pass, median over the traced passes.
	var build, run, verify, release, gap, nsPerCycle, allocs, bytes, pause []float64
	for _, p := range traced {
		var b, r, v, rl time.Duration
		var coreCycles int64
		var mallocs, totalBytes, pauseNs uint64
		for i, sp := range p.spans {
			b, r, v, rl = b+sp.build, r+sp.run, v+sp.verify, rl+sp.release
			coreCycles += p.results[i].Cycles * int64(len(p.results[i].PerCore))
			mallocs += p.mem[i].mallocs
			totalBytes += p.mem[i].bytes
			pauseNs += p.mem[i].pauseNs
		}
		n := float64(len(p.spans))
		build, run = append(build, ms(b)), append(run, ms(r))
		verify, release = append(verify, ms(v)), append(release, ms(rl))
		gap = append(gap, 100*float64(p.wall-(b+r+v+rl))/float64(p.wall))
		nsPerCycle = append(nsPerCycle, float64(r)/float64(coreCycles))
		allocs, bytes = append(allocs, float64(mallocs)/n), append(bytes, float64(totalBytes)/n)
		pause = append(pause, float64(pauseNs)/1e6)
	}
	out["engine.build_ms"], out["engine.run_ms"] = median(build), median(run)
	out["engine.verify_ms"], out["engine.release_ms"] = median(verify), median(release)
	// The gap is the share of the pass no span accounts for: the checks
	// between jobs and the traced pass's MemStats reads.
	out["engine.span_gap_pct"] = median(gap)
	chk.op(median(gap) < 2, "engine spans leave %.2f%% of the pass unaccounted for, want under 2%%", median(gap))
	out["engine.ns_per_core_cycle"] = median(nsPerCycle)
	out["engine.allocs_per_run"], out["engine.bytes_per_run"] = median(allocs), median(bytes)
	out["engine.gc_pause_ms"] = median(pause)

	// Simulator counts of one pass. On the deterministic host they repeat
	// exactly; on the parallel host they are the last pass's.
	last := traced[len(traced)-1]
	var susp, events, bus, mp, cycles uint64
	var work, boundSum float64
	var adjustments uint64
	var ckpts, rollbacks int
	var words, replay, wasted int64
	adaptiveRuns := 0
	for _, r := range last.results {
		susp, events = susp+r.Suspensions, events+r.EventsServed
		work += r.HostWorkUnits
		bus, mp, cycles = bus+r.BusViolations, mp+r.MapViolations, cycles+uint64(r.Cycles)
		if r.MeanBound > 0 {
			boundSum += r.MeanBound
			adaptiveRuns++
		}
		adjustments += r.Adjustments
		ckpts, rollbacks = ckpts+r.Checkpoints, rollbacks+r.Rollbacks
		words, replay, wasted = words+r.CheckpointWords, replay+r.ReplayCycles, wasted+r.WastedCycles
	}
	out["engine.suspensions"], out["engine.events_served"] = float64(susp), float64(events)
	out["engine.host_work_units"] = work
	out["violation.bus_count"], out["violation.map_count"] = float64(bus), float64(mp)
	out["violation.rate_pct"] = 100 * float64(bus+mp) / float64(cycles)
	if adaptiveRuns > 0 {
		out["adaptive.mean_bound"] = boundSum / float64(adaptiveRuns)
	}
	out["adaptive.adjustments"] = float64(adjustments)
	out["checkpoint.count"], out["checkpoint.rollbacks"] = float64(ckpts), float64(rollbacks)
	out["checkpoint.words"] = float64(words)
	out["checkpoint.replay_cycles"], out["checkpoint.wasted_cycles"] = float64(replay), float64(wasted)

	switch env.workload {
	case "engine-cc":
		layerEventQueues(env, out)
	case "engine-slack":
		layerSlack(env, st, traced, chk, out)
	case "engine-spec":
		layerSpec(st, chk, out)
	case "engine-par":
		layerParallel(st, plain, chk, out)
	}
	return out
}
