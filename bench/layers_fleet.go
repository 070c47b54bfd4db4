package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"slacksim/client"
	"slacksim/internal/durable"
	"slacksim/internal/fleet"
	"slacksim/internal/recframe"
	"slacksim/internal/service/jobqueue"
	"slacksim/internal/spec"
)

// traceFleet is fleet-cold's traced run: a plain and a traced phase of a
// quarter of the time each (the traced phase reads each reply's dispatch
// history, which the coordinator sends either way), the write-path layer
// replays, a short phase on the default worker poll, and one live
// migration.
func traceFleet(env *runEnv, st *fleetState, stream *fleetStream, chk *checker) (map[string]float64, error) {
	out := map[string]float64{}
	quarter := env.duration() / 4

	plain, plainWall := st.driveFleet(stream, quarter, chk)
	done, wall := st.driveFleet(stream, quarter, chk)
	checkLocally(done, chk)
	if len(plain) == 0 || len(done) == 0 {
		return nil, fmt.Errorf("no fleet job finished in %v", quarter)
	}
	plainRate, tracedRate := float64(len(plain))/plainWall.Seconds(), float64(len(done))/wall.Seconds()
	out["trace.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	env.note("trace_base_jobs_per_s", plainRate)

	// Dispatch: what the fleet adds on top of the worker's own engine
	// time, and where the jobs went.
	var overhead []float64
	var latSum, engineSum time.Duration
	attempts, affine := 0, 0
	perWorker := map[string]int{}
	for _, f := range done {
		overhead = append(overhead, ms(f.latency-f.job.Result.WallClock))
		latSum, engineSum = latSum+f.latency, engineSum+f.job.Result.WallClock
		at := attemptsOf(f.job)
		attempts += len(at)
		if n := len(at); n > 0 {
			perWorker[at[n-1].Worker]++
			if !at[n-1].Spill {
				affine++
			}
		}
	}
	out["fleet.dispatch_overhead_ms_p50"] = percentile(sortedCopy(overhead), 50)
	out["fleet.engine_share_pct"] = 100 * float64(engineSum) / float64(latSum)
	out["fleet.attempts_per_job"] = float64(attempts) / float64(len(done))
	out["fleet.affinity_share"] = float64(affine) / float64(len(done))
	lo, hi := len(done), 0
	for _, id := range st.ids {
		n := perWorker[id]
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi > 0 {
		out["fleet.worker_balance"] = float64(lo) / float64(hi)
	}

	// The workers' stores after both phases: every job was one Put.
	for _, w := range st.workers {
		s := w.store.Stats()
		out["durable.wal_bytes"] += float64(s.WALBytes)
		out["durable.compactions"] += float64(s.Compactions)
	}

	if err := layerDurable(env, done[0], chk, out); err != nil {
		return nil, err
	}

	// The same load with the workers joined as `slacksimd -coordinator`
	// joins them, over HTTP, which dials them with the 50 ms default poll.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, w := range st.workers {
		if err := fleet.Join(ctx, st.coord.url, st.ids[i], w.url); err != nil {
			return nil, err
		}
	}
	st.facade.Registry().ProbeOnce(ctx)
	slow, _ := st.driveFleet(stream, quarter/2, chk)
	var slowMs []float64
	for _, f := range slow {
		slowMs = append(slowMs, ms(f.latency))
	}
	out["fleet.default_poll_latency_ms_p50"] = percentile(sortedCopy(slowMs), 50)
	if err := st.layerMigration(env, stream, chk, out); err != nil {
		return nil, err
	}
	return out, nil
}

// layerDurable replays the write path a cold job takes, one layer at a
// time: result Put with batched and with per-append fsync, reopening a
// filled store, the journal's fsync-before-accept, and the record
// framing under both.
func layerDurable(env *runEnv, sample fleetJob, chk *checker, out map[string]float64) error {
	puts, syncPuts, submits, frames := 2000, 40, 100, 20000
	if env.smoke {
		puts, syncPuts, submits, frames = 50, 3, 3, 200
	}
	blob := []byte(canonicalJSON(*sample.job.Result))
	key := func(i int) string { return fmt.Sprintf("%s-%06d", sample.job.Key, i) }

	dir, err := env.subdir("durable")
	if err != nil {
		return err
	}
	storeDir := filepath.Join(dir, "store")
	store, err := durable.OpenStore(storeDir, durable.StoreOptions{})
	if err != nil {
		return err
	}
	out["durable.store_put_us"] = perOp(puts, 1e3, func(i int) {
		if err := store.Put(key(i), blob); err != nil {
			chk.op(false, "store put: %v", err)
		}
	})
	if err := store.Close(); err != nil {
		return err
	}
	start := time.Now()
	reopened, err := durable.OpenStore(storeDir, durable.StoreOptions{})
	if err != nil {
		return err
	}
	out["durable.store_reopen_ms"] = ms(time.Since(start))
	chk.op(reopened.Len() == puts, "reopened store holds %d keys, want %d", reopened.Len(), puts)
	reopened.Close()

	synced, err := durable.OpenStore(filepath.Join(dir, "synced"), durable.StoreOptions{SyncEvery: -1})
	if err != nil {
		return err
	}
	out["durable.store_put_sync_ms"] = perOp(syncPuts, 1e6, func(i int) {
		if err := synced.Put(key(i), blob); err != nil {
			chk.op(false, "synced store put: %v", err)
		}
	})
	synced.Close()

	journal, _, err := durable.OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return err
	}
	out["durable.journal_submit_us"] = perOp(submits, 1e3, func(i int) {
		id := fmt.Sprintf("j%d", i)
		journal.JobSubmitted(id, key(i), sample.spec)
		journal.JobFinished(id, jobqueue.Done, "")
	})
	chk.op(journal.Err() == nil, "journal: %v", journal.Err())
	journal.Close()

	var log bytes.Buffer
	log.Grow(frames * (recframe.HeaderLen + len(blob))) // time the framing, not the buffer's growth
	mbPerS := func(nsPerOp float64) float64 { return float64(len(blob)) / 1e6 / (nsPerOp / 1e9) }
	out["recframe.append_mb_s"] = mbPerS(perOp(frames, 1, func(int) {
		if _, err := recframe.Append(&log, blob); err != nil {
			chk.op(false, "recframe append: %v", err)
		}
	}))
	seen := 0
	start = time.Now()
	res, err := recframe.Scan(bytes.NewReader(log.Bytes()), func(int64, []byte) error { seen++; return nil })
	scanNs := float64(time.Since(start)) / float64(frames)
	chk.op(err == nil && !res.Torn && seen == frames, "recframe scan: %d of %d records, torn=%v, err=%v", seen, frames, res.Torn, err)
	out["recframe.scan_mb_s"] = mbPerS(scanNs)
	return nil
}

// layerMigration evacuates the worker running one long checkpointing job
// and measures how long the job is homeless: from the evacuation request
// to the start of the resumed attempt on the other worker. The result
// must equal a local run's.
func (st *fleetState) layerMigration(env *runEnv, stream *fleetStream, chk *checker, out map[string]float64) error {
	scale := 4
	if env.smoke {
		scale = 2
	}
	long := spec.Spec{Workload: "lu", Scale: scale, Scheme: "s16", CheckpointInterval: 500, Seed: stream.uniqueSeed()}.Normalize()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(st.coord.url)
	j, err := cl.Submit(ctx, long)
	if err != nil {
		return err
	}
	// Find the worker that picked the job up.
	running := -1
	for running < 0 {
		for i, w := range st.workers {
			s, err := fetchStatsz(w.url)
			if err != nil {
				return err
			}
			if s.Queue.Running > 0 {
				running = i
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("migration: the long job never started")
		}
	}
	asked := time.Now()
	if err := postOK(st.coord.url + "/v1/fleet/workers/" + st.ids[running] + "/evacuate"); err != nil {
		return err
	}
	j, err = cl.Wait(ctx, j.ID, clientPoll)
	if err != nil {
		return err
	}
	if j.State != "done" || j.Result == nil {
		chk.op(false, "migrated job ended %s: %s", j.State, j.Error)
		return nil
	}
	at := attemptsOf(j)
	if len(at) < 2 || !at[0].Migrated || !at[len(at)-1].Resumed {
		// The job finished before the evacuation reached it: nothing
		// migrated, so there is no pause to report.
		env.note("migration", "job finished before it could be evacuated")
		chk.op(localResultEqual(long, j), "long job: result differs from a local run")
		return nil
	}
	out["fleet.migration_pause_ms"] = ms(at[len(at)-1].Start.Sub(asked))
	chk.op(localResultEqual(long, j), "migrated job: result differs from a local run")
	return nil
}
