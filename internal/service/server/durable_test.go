package server

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slacksim"
	"slacksim/internal/durable"
	"slacksim/internal/service/jobqueue"
)

// snapRunner mimics the engine's migration contract without simulating:
// each run spins until either released or asked to snapshot, in which
// case it exports a valid durable container and returns ErrSnapshotted.
// Resumed runs observe their snapshot bytes and finish immediately.
type snapRunner struct {
	started chan string   // job ID each time a run begins
	release chan struct{} // lets a run finish normally

	mu      sync.Mutex
	resumed [][]byte // rc.Resume of each resumed run
}

func newSnapRunner() *snapRunner {
	return &snapRunner{started: make(chan string, 16), release: make(chan struct{}, 16)}
}

func (g *snapRunner) run(rc RunContext) (*slacksim.Results, error) {
	if len(rc.Resume) > 0 {
		g.mu.Lock()
		g.resumed = append(g.resumed, rc.Resume)
		g.mu.Unlock()
		return &slacksim.Results{Workload: rc.Spec.Workload, Cycles: 77, Committed: 7}, nil
	}
	g.started <- rc.JobID
	for {
		select {
		case <-g.release:
			return &slacksim.Results{Workload: rc.Spec.Workload, Cycles: 42, Committed: 4}, nil
		default:
		}
		if rc.Interrupt != nil && rc.Interrupt.Load() {
			return nil, slacksim.ErrInterrupted
		}
		if rc.SnapshotRequest != nil && rc.SnapshotRequest.Load() {
			blob, err := durable.EncodeSnapshot(rc.Spec, []byte("engine-state-"+rc.JobID))
			if err != nil {
				return nil, err
			}
			rc.OnSnapshot(blob)
			return nil, slacksim.ErrSnapshotted
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMigrateRunningJobExportsSnapshot(t *testing.T) {
	g := newSnapRunner()
	_, c := startServer(t, Config{Workers: 1, QueueDepth: 8, Runner: g.run})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	j, err := c.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	mj, err := c.Migrate(ctx, j.ID)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if mj.ID != j.ID {
		t.Fatalf("migrate returned job %s, want %s", mj.ID, j.ID)
	}
	fin, err := c.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "migrated" {
		t.Fatalf("state = %s (%s), want migrated", fin.State, fin.Error)
	}

	blob, err := c.Snapshot(ctx, j.ID)
	if err != nil {
		t.Fatalf("snapshot fetch: %v", err)
	}
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode exported snapshot: %v", err)
	}
	if want := testSpec().Normalize().Key(); snap.Key != want {
		t.Fatalf("snapshot key = %s, want %s", snap.Key, want)
	}
	if !bytes.Equal(snap.Engine, []byte("engine-state-"+j.ID)) {
		t.Fatalf("snapshot engine state = %q", snap.Engine)
	}
}

func TestMigratePendingJobEjectsWithoutSnapshot(t *testing.T) {
	g := newSnapRunner()
	_, c := startServer(t, Config{Workers: 1, QueueDepth: 8, Runner: g.run})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Occupy the single worker so the second job stays pending.
	blocker, err := c.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	sp2 := testSpec()
	sp2.Seed = 2
	j2, err := c.Submit(ctx, sp2)
	if err != nil {
		t.Fatal(err)
	}

	mj, err := c.Migrate(ctx, j2.ID)
	if err != nil {
		t.Fatalf("migrate pending: %v", err)
	}
	if mj.State != "migrated" {
		t.Fatalf("ejected job state = %s, want migrated", mj.State)
	}
	// No state was ever exported: the spec alone restarts it elsewhere.
	if _, err := c.Snapshot(ctx, j2.ID); err == nil {
		t.Fatal("snapshot of an ejected pending job should 404")
	}

	g.release <- struct{}{}
	if fin, err := c.Wait(ctx, blocker.ID, 5*time.Millisecond); err != nil || fin.State != "done" {
		t.Fatalf("blocker: %v %v", fin, err)
	}
}

func TestResumeRunsFromSnapshotAndCaches(t *testing.T) {
	g := newSnapRunner()
	s, c := startServer(t, Config{Workers: 2, QueueDepth: 8, Runner: g.run})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	blob, err := durable.EncodeSnapshot(testSpec(), []byte("exported-elsewhere"))
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Resume(ctx, blob)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	fin, err := c.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.Result == nil || fin.Result.Cycles != 77 {
		t.Fatalf("resumed job: %+v", fin)
	}
	g.mu.Lock()
	nResumed := len(g.resumed)
	ok := nResumed == 1 && bytes.Equal(g.resumed[0], blob)
	g.mu.Unlock()
	if !ok {
		t.Fatalf("runner saw %d resumes, want exactly the posted container", nResumed)
	}
	if got := s.resumed.Load(); got != 1 {
		t.Fatalf("resumed counter = %d, want 1", got)
	}

	// Resuming again after completion: the result is cached under the
	// spec key, so no second run starts.
	j2, err := c.Resume(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.Result == nil || j2.Result.Cycles != 77 {
		t.Fatalf("second resume should hit the cache: %+v", j2)
	}
}

// TestResumeBlobReachesEveryRun: a resumed job must run from its
// snapshot even when a worker takes it the instant it is enqueued. Four
// clients post 1000 resumes of distinct specs to eight workers; the
// runner counts runs that arrive without their snapshot. Registering the
// snapshot after the enqueue lost a few in every thousand.
func TestResumeBlobReachesEveryRun(t *testing.T) {
	var missed atomic.Int32
	run := func(rc RunContext) (*slacksim.Results, error) {
		if len(rc.Resume) == 0 {
			missed.Add(1)
		}
		return &slacksim.Results{Workload: rc.Spec.Workload, Cycles: 1}, nil
	}
	_, c := startServer(t, Config{Workers: 8, QueueDepth: 64, Runner: run})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				sp := testSpec()
				sp.Seed = int64(1000*g + i + 2)
				blob, err := durable.EncodeSnapshot(sp, []byte("state"))
				if err != nil {
					t.Error(err)
					return
				}
				j, err := c.Resume(ctx, blob)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Wait(ctx, j.ID, time.Millisecond); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := missed.Load(); n != 0 {
		t.Fatalf("%d of 1000 resumed jobs ran without their snapshot", n)
	}
}

func TestResumeRejectsGarbage(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Resume(ctx, []byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestEvacuateEjectsPendingAndMigratesRunning(t *testing.T) {
	g := newSnapRunner()
	_, c := startServer(t, Config{Workers: 1, QueueDepth: 8, Runner: g.run})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	running, err := c.Submit(ctx, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	sp2 := testSpec()
	sp2.Seed = 2
	pending, err := c.Submit(ctx, sp2)
	if err != nil {
		t.Fatal(err)
	}

	ejected, migrating, err := c.Evacuate(ctx)
	if err != nil {
		t.Fatalf("evacuate: %v", err)
	}
	if len(ejected) != 1 || ejected[0] != pending.ID {
		t.Fatalf("ejected = %v, want [%s]", ejected, pending.ID)
	}
	if len(migrating) != 1 || migrating[0] != running.ID {
		t.Fatalf("migrating = %v, want [%s]", migrating, running.ID)
	}

	fin, err := c.Wait(ctx, running.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "migrated" {
		t.Fatalf("running job after evacuate = %s, want migrated", fin.State)
	}
	if _, err := c.Snapshot(ctx, running.ID); err != nil {
		t.Fatalf("running job's snapshot should be fetchable: %v", err)
	}
	if pj, _ := c.Get(ctx, pending.ID); pj.State != "migrated" {
		t.Fatalf("pending job after evacuate = %s, want migrated", pj.State)
	}
}

// TestJournalRecoveryReRunsUnfinishedJobs is the crash-recovery loop at
// the server level: jobs journaled as admitted (one still pending, one
// orphaned mid-run) are re-enqueued by a fresh server on the same
// journal and produce the same results a crash-free run would have.
func TestJournalRecoveryReRunsUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	sp1 := testSpec()
	sp2 := testSpec()
	sp2.Seed = 9
	n1, n2 := sp1.Normalize(), sp2.Normalize()

	j1, pending, err := durable.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending jobs", len(pending))
	}
	j1.JobSubmitted("j1", n1.Key(), n1)
	j1.JobSubmitted("j2", n2.Key(), n2)
	j1.JobRunning("j1") // orphaned mid-run at the "crash"
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay finds both jobs unfinished.
	j2, pending, err := durable.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 2 {
		t.Fatalf("recovered %d pending jobs, want 2", len(pending))
	}

	s, c := startServer(t, Config{Workers: 2, QueueDepth: 8, Journal: j2})
	if n := s.Recover(pending); n != 2 {
		t.Fatalf("Recover = %d, want 2", n)
	}
	for _, id := range []string{"j1", "j2"} {
		fin, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if fin.State != "done" || fin.Result == nil || fin.Result.Committed == 0 {
			t.Fatalf("recovered job %s: %+v", id, fin)
		}
	}
	if got := s.recovered.Load(); got != 2 {
		t.Fatalf("recovered counter = %d, want 2", got)
	}
}

// TestRecoverServesPersistedResultWithoutRerun covers the crash window
// between the result landing in the persistent store and the journal's
// terminal record: the recovered job must be served from the store, not
// re-simulated.
func TestRecoverServesPersistedResultWithoutRerun(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	store, err := durable.OpenStore(filepath.Join(dir, "store"), durable.StoreOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cache := durable.NewResultCache(store, 16)

	s, c := startServer(t, Config{Workers: 2, QueueDepth: 8, Cache: cache})
	sp := testSpec()
	j, err := c.SubmitWait(ctx, sp, 5*time.Millisecond)
	if err != nil || j.State != "done" {
		t.Fatalf("seed run: %+v, %v", j, err)
	}
	if got := s.runs.Load(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}

	// A second server on the same store recovers the job as if the crash
	// hit after the result write: no re-simulation, identical result.
	store2, err := durable.OpenStore(filepath.Join(dir, "store"), durable.StoreOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	n := sp.Normalize()
	s2, c2 := startServer(t, Config{Workers: 2, QueueDepth: 8, Cache: durable.NewResultCache(store2, 16)})
	if got := s2.Recover([]durable.PendingJob{{ID: "j7", Key: n.Key(), Spec: n, WasRunning: true}}); got != 1 {
		t.Fatalf("Recover = %d, want 1", got)
	}
	fin, err := c2.Wait(ctx, "j7", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" || fin.Result == nil {
		t.Fatalf("recovered job: %+v", fin)
	}
	if fin.Result.Cycles != j.Result.Cycles || fin.Result.Committed != j.Result.Committed {
		t.Fatalf("store-served result differs: %+v vs %+v", fin.Result, j.Result)
	}
	if got := s2.runs.Load(); got != 0 {
		t.Fatalf("recovered job re-simulated (runs = %d)", got)
	}
}

var _ Journal = (*durable.Journal)(nil)
var _ = jobqueue.Migrated
