package main

// metricDef names one reported metric. The tables below are the single
// source of truth; schema_test.go checks that BENCHMARK.json repeats them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload's untraced run. Bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression. One
// bound serves all six workloads, so the noisiest sets it: fleet-cold's
// run-to-run spread is 6 to 12 % on this box (aa_report.txt), which puts
// every throughput and latency bound at the contract's ceiling of 25 %.
// The engine workloads alone would carry 10 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_kips", "kinst/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_latency_ms_p50", "ms", "lower", 0.25},
	{"job_latency_ms_p95", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the single-layer metrics printed by the traced run. Every
// traced run prints all of them; a metric measured on another workload
// reads 0 (README.md says which workload measures which).
var perLayer = []metricDef{
	// Demoted from the issue's end-to-end list: both are 0 on healthy
	// runs (ops_failed_pct always, cycle_err_pct under cc), and the
	// driver's relative bounds cannot hold a metric whose baseline is 0.
	{"ops_failed_pct", "%", "lower", 0},
	{"cycle_err_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	{"engine.build_ms", "ms", "lower", 0},
	{"engine.run_ms", "ms", "lower", 0},
	{"engine.verify_ms", "ms", "lower", 0},
	{"engine.release_ms", "ms", "lower", 0},
	{"engine.span_gap_pct", "%", "lower", 0},
	{"engine.ns_per_core_cycle", "ns", "lower", 0},
	{"engine.suspensions", "count", "lower", 0},
	{"engine.events_served", "count", "lower", 0},
	{"engine.host_work_units", "count", "lower", 0},
	{"engine.su_kips", "kinst/s", "higher", 0},
	{"engine.adaptive_kips", "kinst/s", "higher", 0},
	{"engine.allocs_per_run", "count", "lower", 0},
	{"engine.bytes_per_run", "B", "lower", 0},
	{"engine.gc_pause_ms", "ms", "lower", 0},
	{"core.ns_per_cycle_1core", "ns", "lower", 0},
	{"event.queue_ns_per_op", "ns", "lower", 0},
	{"event.shard_ns_per_op", "ns", "lower", 0},
	{"event.bands_ns_per_op", "ns", "lower", 0},

	{"violation.bus_count", "count", "lower", 0},
	{"violation.map_count", "count", "lower", 0},
	{"violation.rate_pct", "%", "lower", 0},
	{"adaptive.mean_bound", "cycles", "higher", 0},
	{"adaptive.adjustments", "count", "lower", 0},

	{"checkpoint.count", "count", "lower", 0},
	{"checkpoint.words", "count", "lower", 0},
	{"checkpoint.rollbacks", "count", "lower", 0},
	{"checkpoint.replay_cycles", "cycles", "lower", 0},
	{"checkpoint.wasted_cycles", "cycles", "lower", 0},
	{"checkpoint.incremental_ms", "ms", "lower", 0},
	{"checkpoint.deep_over_incremental", "ratio", "higher", 0},
	{"model.tcc_ms", "ms", "lower", 0},
	{"model.tslack_ms", "ms", "lower", 0},
	{"model.tcpt_ms", "ms", "lower", 0},
	{"model.f", "ratio", "lower", 0},
	{"model.dr_cycles", "cycles", "lower", 0},
	{"model.ts_pred_ms", "ms", "lower", 0},
	{"model.ts_meas_ms", "ms", "lower", 0},
	{"model.residual_pct", "%", "lower", 0},
	{"snapshot.export_ms", "ms", "lower", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"snapshot.resume_ms", "ms", "lower", 0},

	{"parallel.gomaxprocs", "count", "higher", 0},
	{"parallel.cc_mismatch_pct", "%", "lower", 0},
	{"parallel.det_cc_ms", "ms", "lower", 0},
	{"parallel.cc_over_det", "ratio", "lower", 0},
	{"parallel.kips_1", "kinst/s", "higher", 0},
	{"parallel.kips_n_over_1", "ratio", "higher", 0},

	{"synth.build_ms", "ms", "lower", 0},
	{"memtrace.encode_mb_s", "MB/s", "higher", 0},
	{"memtrace.decode_mb_s", "MB/s", "higher", 0},
	{"sampling.work_saved_pct", "%", "higher", 0},
	{"sampling.err_pct", "%", "lower", 0},
	{"spec.decode_key_us", "us", "lower", 0},
	{"resultcache.get_ns", "ns", "lower", 0},
	{"resultcache.put_ns", "ns", "lower", 0},
	{"jobqueue.submit_pop_us", "us", "lower", 0},
	{"server.encode_result_us", "us", "lower", 0},
	{"server.result_bytes", "B", "lower", 0},

	{"durable.store_get_us", "us", "lower", 0},
	{"durable.store_put_us", "us", "lower", 0},
	{"durable.store_put_sync_ms", "ms", "lower", 0},
	{"durable.journal_submit_us", "us", "lower", 0},
	{"durable.store_reopen_ms", "ms", "lower", 0},
	{"durable.wal_bytes", "B", "lower", 0},
	{"durable.compactions", "count", "lower", 0},
	{"recframe.append_mb_s", "MB/s", "higher", 0},
	{"recframe.scan_mb_s", "MB/s", "higher", 0},

	{"server.mem_hits", "count", "higher", 0},
	{"server.disk_hits", "count", "lower", 0},
	{"server.misses", "count", "lower", 0},
	{"server.coalesced", "count", "lower", 0},
	{"server.runs", "count", "lower", 0},
	{"server.rejected_429", "count", "lower", 0},
	{"server.mem_hit_us_p50", "us", "lower", 0},
	{"server.disk_hit_us_p50", "us", "lower", 0},
	{"server.latency_ms_p99", "ms", "lower", 0},
	{"server.layer_sum_us", "us", "lower", 0},
	{"server.http_residual_us", "us", "lower", 0},

	{"fleet.dispatch_overhead_ms_p50", "ms", "lower", 0},
	{"fleet.engine_share_pct", "%", "higher", 0},
	{"fleet.attempts_per_job", "ratio", "lower", 0},
	{"fleet.affinity_share", "ratio", "higher", 0},
	{"fleet.worker_balance", "ratio", "higher", 0},
	{"fleet.default_poll_latency_ms_p50", "ms", "lower", 0},
	{"fleet.migration_pause_ms", "ms", "lower", 0},
}

// workloadDef names one workload and records why it was chosen.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"engine-cc", "cycle-by-cycle on the deterministic host: every core suspends almost every cycle, so host time is pacing and manager servicing"},
	{"engine-slack", "unbounded and adaptive slack on the deterministic host: su never suspends (core, L1, uncore stepping); adaptive adds violation detection and the controller"},
	{"engine-spec", "speculative slack with dense checkpoints and rollback: snapshot copy, restore and cc replay dominate; no other workload checkpoints"},
	{"engine-par", "goroutine-parallel host at GOMAXPROCS=nproc under cc and s16: eventcount pacing, SPSC shards and the second manager copy"},
	{"serve-hot", "one slacksimd over loopback HTTP, Zipf requests over a pre-filled catalogue: every request is a memory- or disk-tier cache hit, the engine does no work"},
	{"fleet-cold", "coordinator plus two workers over loopback HTTP, every spec unique: engine runs, journal and store writes, and dispatch do the work"},
}

// metricNames lists the names of defs in order.
func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}
