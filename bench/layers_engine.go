package main

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"slacksim"
	"slacksim/internal/engine"
	"slacksim/internal/event"
	"slacksim/internal/specmodel"
)

// Layer replays for the engine workloads: each feeds one layer's public
// API in isolation, or re-runs a kernel with one knob changed, so that a
// change in an end-to-end number can be pinned on a layer.

// timeMedian runs fn n times and returns the median duration in ms.
func timeMedian(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = ms(time.Since(start))
	}
	return median(xs)
}

// layerEventQueues pushes and drains messages through each of the three
// queue types the engine uses, in bursts of the size a manager step sees.
func layerEventQueues(env *runEnv, out map[string]float64) {
	n := 1_000_000
	if env.smoke {
		n = 10_000
	}
	const burst = 64
	msg := func(i int) event.Msg { return event.Msg{ReqID: uint64(i), LineAddr: uint64(i) << 6, TS: int64(i)} }
	buf := make([]event.Msg, 0, burst)
	nsPerOp := func(fn func()) float64 { return timeMedian(3, fn) * 1e6 / float64(n) }

	q := event.NewQueue[event.Msg]()
	out["event.queue_ns_per_op"] = nsPerOp(func() {
		for i := 0; i < n; i += burst {
			for k := 0; k < burst; k++ {
				q.Push(msg(i + k))
			}
			buf = q.DrainInto(buf[:0])
		}
	})
	s := event.NewShard[event.Msg]()
	out["event.shard_ns_per_op"] = nsPerOp(func() {
		for i := 0; i < n; i += burst {
			for k := 0; k < burst; k++ {
				s.Push(msg(i + k))
			}
			buf = s.DrainInto(buf[:0])
		}
	})
	b := event.NewBands[event.Msg](4)
	out["event.bands_ns_per_op"] = nsPerOp(func() {
		for i := 0; i < n; i += burst {
			for k := 0; k < burst; k++ {
				b.Add(int64(i+k), msg(i+k))
			}
			buf = b.TakeBelow(int64(i+burst), buf[:0])
		}
	})
}

// layerSlack splits engine-slack's pass by scheme, measures accuracy
// against cc, and times a single core with no inter-core pacing.
func layerSlack(env *runEnv, st *engineState, traced []enginePass, chk *checker, out map[string]float64) {
	// Per-scheme throughput from the traced passes' run spans.
	var su, ad []float64
	for _, p := range traced {
		var suInsts, adInsts uint64
		var suT, adT time.Duration
		for i, j := range st.jobs {
			if j.cfg.Scheme.Kind == engine.Unbounded {
				suInsts, suT = suInsts+p.results[i].Committed, suT+p.spans[i].total()
			} else {
				adInsts, adT = adInsts+p.results[i].Committed, adT+p.spans[i].total()
			}
		}
		su = append(su, float64(suInsts)/1e3/suT.Seconds())
		ad = append(ad, float64(adInsts)/1e3/adT.Seconds())
	}
	out["engine.su_kips"], out["engine.adaptive_kips"] = median(su), median(ad)

	// Accuracy: simulated-time error of every run against the cc run of
	// the same kernel. Simulated time, so it repeats exactly for a seed.
	gold := map[string]slacksim.Results{}
	for _, k := range kernels {
		j := engineJob{name: k + "/cc", cfg: slacksim.Config{Workload: k, Scale: st.jobs[0].cfg.Scale, Cores: 8, Scheme: slacksim.Schemes.CC(), Seed: 1}}
		res, _, err := runEngineJob(j)
		chk.op(err == nil, "%v", err)
		gold[k] = res
	}
	var errSum float64
	for i, j := range st.jobs {
		errSum += st.refs[i].res.CycleErrorVs(gold[j.cfg.Workload])
	}
	out["cycle_err_pct"] = errSum / float64(len(st.jobs))

	// One core, private data, unbounded slack: core and L1 stepping with
	// nothing to wait for. Verify is not called: on a pooled machine the
	// private workload forgets its core count and checks eight cores
	// (README.md, "Defects found"); the committed count must repeat.
	one := slacksim.Config{Workload: "private", Scale: st.jobs[0].cfg.Scale, Cores: 1, Scheme: slacksim.Schemes.Unbounded(), Seed: 1}
	var ns []float64
	var committed uint64
	for i := 0; i < 5; i++ {
		sim, err := slacksim.New(one)
		if err != nil {
			chk.op(false, "private/su-1core: %v", err)
			break
		}
		start := time.Now()
		res, err := sim.Run()
		took := time.Since(start)
		sim.Release()
		if i == 0 {
			committed = res.Committed
		}
		chk.op(err == nil && res.Cycles > 0 && res.Committed == committed, "private/su-1core: err=%v, %d cycles, %d committed (first run %d)", err, res.Cycles, res.Committed, committed)
		if res.Cycles > 0 {
			ns = append(ns, float64(took)/float64(res.Cycles))
		}
	}
	out["core.ns_per_cycle_1core"] = median(ns)
}

// runWithDeep runs cfg directly on engine.Run so that the reference deep
// checkpoint path, which the façade hides, can be selected. The field is
// set by name: ROADMAP item 2 may delete the path, and the benchmark must
// keep building when it does. ok is false when the field is gone.
func runWithDeep(cfg slacksim.Config, deep bool) (d time.Duration, ok bool, err error) {
	sim, err := slacksim.New(cfg)
	if err != nil {
		return 0, false, err
	}
	defer sim.Release()
	rc := engine.RunConfig{
		Scheme:             cfg.Scheme,
		Seed:               cfg.Seed,
		CheckpointInterval: cfg.CheckpointInterval,
		Rollback:           cfg.Rollback,
	}
	f := reflect.ValueOf(&rc).Elem().FieldByName("DeepCheckpoint")
	if !f.IsValid() || f.Kind() != reflect.Bool {
		return 0, false, nil
	}
	f.SetBool(deep)
	start := time.Now()
	_, err = engine.Run(sim.Machine(), rc)
	d = time.Since(start)
	if err == nil {
		err = sim.Verify()
	}
	return d, true, err
}

// layerSpec measures the checkpoint paths against each other, the
// paper's Table 5 model against the measured speculative run, and
// snapshot export/resume.
func layerSpec(st *engineState, chk *checker, out map[string]float64) {
	// The dense-rollback job: water under s16, checkpoint every 250.
	cfg := st.jobs[1].cfg

	// Incremental (production) against deep (reference) checkpoints.
	var inc, deep []float64
	deepExists := true
	for i := 0; i < 3 && deepExists; i++ {
		for _, d := range []bool{false, true} {
			took, ok, err := runWithDeep(cfg, d)
			if !ok && err == nil {
				deepExists = false
				break
			}
			chk.op(err == nil, "checkpoint path deep=%v: %v", d, err)
			if d {
				deep = append(deep, ms(took))
			} else {
				inc = append(inc, ms(took))
			}
		}
	}
	if deepExists {
		out["checkpoint.incremental_ms"] = median(inc)
		out["checkpoint.deep_over_incremental"] = median(deep) / median(inc)
	}

	// Table 5: Ts = (1-F)·Tcpt + F·Dr·Tcpt/I + F·Tcc, every term measured
	// from outside on the same kernel.
	timeOf := func(name string, c slacksim.Config) (float64, slacksim.Results) {
		var xs []float64
		var last slacksim.Results
		for i := 0; i < 3; i++ {
			res, sp, err := runEngineJob(engineJob{name: name, cfg: c})
			chk.op(err == nil, "%v", err)
			xs, last = append(xs, ms(sp.run)), res
		}
		return median(xs), last
	}
	base := slacksim.Config{Workload: cfg.Workload, Scale: cfg.Scale, Cores: cfg.Cores, Seed: cfg.Seed}
	ccCfg, slackCfg, cptCfg := base, base, base
	ccCfg.Scheme = slacksim.Schemes.CC()
	slackCfg.Scheme = cfg.Scheme
	cptCfg.Scheme, cptCfg.CheckpointInterval = cfg.Scheme, cfg.CheckpointInterval
	cptCfg.TrackIntervals = []int64{cfg.CheckpointInterval}
	tcc, _ := timeOf("model/cc", ccCfg)
	tslack, _ := timeOf("model/slack", slackCfg)
	tcpt, cptRes := timeOf("model/slack+ckpt", cptCfg)
	tsMeas, _ := timeOf("model/speculative", cfg)
	out["model.tcc_ms"], out["model.tslack_ms"], out["model.tcpt_ms"] = tcc, tslack, tcpt
	out["model.ts_meas_ms"] = tsMeas
	if len(cptRes.Intervals) == 1 {
		ir := cptRes.Intervals[0]
		out["model.f"], out["model.dr_cycles"] = ir.FractionViolating, ir.MeanFirstDistance
		pred, err := specmodel.Inputs{Tcc: tcc, Tcpt: tcpt, F: ir.FractionViolating, Dr: ir.MeanFirstDistance, I: float64(ir.Interval)}.Estimate()
		chk.op(err == nil, "specmodel: %v", err)
		out["model.ts_pred_ms"] = pred
		out["model.residual_pct"] = 100 * (tsMeas - pred) / tsMeas
	} else {
		chk.op(false, "model: want one interval report, got %d", len(cptRes.Intervals))
	}

	layerSnapshot(cptCfg, chk, out)
}

// layerSnapshot exports a run's state at its first checkpoint boundary
// and resumes it on a fresh Simulation. The run is capped at a few
// thousand instructions so that both calls are dominated by encoding and
// decoding the machine state rather than by simulating; the resumed
// Results must equal the uninterrupted capped run's.
func layerSnapshot(cfg slacksim.Config, chk *checker, out map[string]float64) {
	cfg.TrackIntervals = nil
	cfg.MaxInstructions = 4000
	var exportMs, resumeMs, size []float64
	for i := 0; i < 3; i++ {
		whole, err := slacksim.New(cfg)
		if err != nil {
			chk.op(false, "snapshot: %v", err)
			return
		}
		want, err := whole.Run()
		whole.Release()
		if err != nil {
			chk.op(false, "snapshot: uninterrupted run: %v", err)
			return
		}

		var state []byte
		var req atomic.Bool
		req.Store(true)
		ex := cfg
		ex.SnapshotRequest = &req
		ex.OnSnapshot = func(b []byte) { state = append([]byte(nil), b...) }
		src, err := slacksim.New(ex)
		if err != nil {
			chk.op(false, "snapshot: %v", err)
			return
		}
		start := time.Now()
		_, err = src.Run()
		exportMs = append(exportMs, ms(time.Since(start)))
		src.Release()
		if !errors.Is(err, slacksim.ErrSnapshotted) || len(state) == 0 {
			chk.op(false, "snapshot: export: err=%v, %d bytes", err, len(state))
			return
		}
		size = append(size, float64(len(state)))

		dst, err := slacksim.New(cfg)
		if err != nil {
			chk.op(false, "snapshot: %v", err)
			return
		}
		start = time.Now()
		got, err := dst.Resume(state)
		resumeMs = append(resumeMs, ms(time.Since(start)))
		dst.Release()
		chk.op(err == nil && canonicalJSON(got) == canonicalJSON(want),
			"snapshot: resumed run differs from the uninterrupted one (err=%v)\n got %s\nwant %s", err, canonicalJSON(got), canonicalJSON(want))
	}
	out["snapshot.export_ms"], out["snapshot.resume_ms"] = median(exportMs), median(resumeMs)
	out["snapshot.bytes"] = median(size)
}

// layerParallel compares the parallel host with the deterministic host on
// the same cc runs, and with itself at GOMAXPROCS=1.
func layerParallel(st *engineState, plain []enginePass, chk *checker, out map[string]float64) {
	out["parallel.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if st.ccRuns > 0 {
		out["parallel.cc_mismatch_pct"] = 100 * float64(st.ccMismatches) / float64(st.ccRuns)
	}

	ccKind := slacksim.Schemes.CC().Kind
	var parCC []float64
	for _, p := range plain {
		var t time.Duration
		for i, j := range st.jobs {
			if j.cfg.Scheme.Kind == ccKind {
				t += p.spans[i].total()
			}
		}
		parCC = append(parCC, ms(t))
	}
	detCC := timeMedian(3, func() {
		for _, j := range st.jobs {
			if j.cfg.Scheme.Kind != ccKind {
				continue
			}
			det := j
			det.cfg.Parallel, det.cfg.Seed = false, 1
			_, _, err := runEngineJob(det)
			chk.op(err == nil, "%v", err)
		}
	})
	out["parallel.det_cc_ms"] = detCC
	out["parallel.cc_over_det"] = median(parCC) / detCC

	var kipsN []float64
	for _, p := range plain {
		kipsN = append(kipsN, passKips(p))
	}
	prev := runtime.GOMAXPROCS(1)
	var kips1 []float64
	for i := 0; i < 2; i++ {
		kips1 = append(kips1, passKips(st.runPass(chk, false)))
	}
	runtime.GOMAXPROCS(prev)
	out["parallel.kips_1"] = median(kips1)
	out["parallel.kips_n_over_1"] = median(kipsN) / median(kips1)
}
