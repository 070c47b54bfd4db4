package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestSmokeEveryWorkload runs every workload's untraced and traced form
// on tiny inputs: the wiring, the correctness gate and the output schema
// are exercised by `go test ./...`; nothing is measured.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			defs := endToEnd
			if traced {
				name, defs = w.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				env := &runEnv{workload: w.Name, seed: 5, seconds: 0.2, traced: traced, smoke: true, dir: t.TempDir()}
				out, d, err := runWorkload(env)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", out.Correct, out.Attempted, out.Failed, d.Failures)
				}
				got := sortedKeys(out.Metrics)
				want := metricNames(defs)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("metrics printed:\n got %v\nwant %v", got, want)
				}
				for _, def := range defs {
					m := out.Metrics[def.Name]
					if m.Unit != def.Unit {
						t.Errorf("%s: unit %q, declared %q", def.Name, m.Unit, def.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("%s = %v: an end-to-end metric must never be 0", def.Name, m.Value)
					}
				}
				if traced {
					for _, name := range layersOf[w.Name] {
						if out.Metrics[name].Value == 0 {
							t.Errorf("%s reads 0, but %s's traced run measures it", name, w.Name)
						}
					}
				}

				// The result line is one JSON object with exactly the
				// driver's four keys, and it survives the round trip the
				// suite makes when it reads a child's output.
				var lines bytes.Buffer
				enc := json.NewEncoder(&lines)
				if err := enc.Encode(map[string]detail{"detail": d}); err != nil {
					t.Fatal(err)
				}
				if err := enc.Encode(out); err != nil {
					t.Fatal(err)
				}
				back, _, err := parseChildOutput(lines.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(back, out) {
					t.Errorf("result line does not round-trip:\n got %+v\nwant %+v", back, out)
				}
				var raw map[string]json.RawMessage
				last := bytes.Split(bytes.TrimSpace(lines.Bytes()), []byte("\n"))
				if err := json.Unmarshal(last[len(last)-1], &raw); err != nil {
					t.Fatal(err)
				}
				if keys := sortedKeys(raw); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
					t.Errorf("result line has keys %v", keys)
				}
			})
		}
	}
}

// layersOf lists, per workload, layer metrics its traced run must measure
// (a sample that pins the wiring; README.md has the full table).
var layersOf = map[string][]string{
	"engine-cc":    {"engine.run_ms", "engine.suspensions", "event.queue_ns_per_op", "event.shard_ns_per_op", "event.bands_ns_per_op", "engine.allocs_per_run"},
	"engine-slack": {"engine.su_kips", "engine.adaptive_kips", "cycle_err_pct", "core.ns_per_cycle_1core", "violation.bus_count", "adaptive.mean_bound"},
	"engine-spec":  {"checkpoint.count", "checkpoint.rollbacks", "checkpoint.deep_over_incremental", "model.tcc_ms", "model.f", "model.ts_pred_ms", "snapshot.bytes", "snapshot.resume_ms"},
	"engine-par":   {"parallel.gomaxprocs", "parallel.cc_over_det", "parallel.kips_n_over_1"},
	"serve-hot": {"server.mem_hits", "server.disk_hits", "server.mem_hit_us_p50", "server.disk_hit_us_p50", "server.latency_ms_p99", "spec.decode_key_us",
		"resultcache.get_ns", "jobqueue.submit_pop_us", "server.encode_result_us", "server.result_bytes", "durable.store_get_us",
		"synth.build_ms", "memtrace.encode_mb_s", "memtrace.decode_mb_s", "sampling.work_saved_pct"},
	"fleet-cold": {"fleet.dispatch_overhead_ms_p50", "fleet.engine_share_pct", "fleet.attempts_per_job", "fleet.affinity_share", "fleet.worker_balance",
		"fleet.default_poll_latency_ms_p50", "durable.store_put_us", "durable.store_put_sync_ms", "durable.journal_submit_us", "durable.store_reopen_ms", "durable.wal_bytes",
		"recframe.append_mb_s", "recframe.scan_mb_s"},
}
