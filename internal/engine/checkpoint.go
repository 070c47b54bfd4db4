package engine

import (
	"slacksim/internal/adaptive"
	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/trace"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
)

// globalSnapshot is a consistent copy of the entire simulation: every core
// thread's state, the manager's state (uncore + queued work), target
// memory, workload synchronization, violation accounting, and the engine's
// own pacing state. It plays the role of the paper's set of fork()ed
// processes forming a global checkpoint (Section 5.1).
//
// Two checkpoint implementations maintain it. The reference path
// (RunConfig.DeepCheckpoint) builds a fresh deep copy at every boundary,
// like re-fork()ing the whole process set. The default incremental path
// exploits that consecutive checkpoints share most of their state — the
// copy-on-write behavior fork() gets from the kernel for free — by keeping
// ONE evolving snapshot and, at each boundary, copying back only state
// dirtied since the previous one (dirty cache sets, dirty status-map
// lines, dirty memory pages, versioned MSHR files). Rollback applies the
// same dirty sets as an undo log. Both paths yield byte-identical Results:
// the cost model's checkpoint words measure the simulated fork cost, which
// is computed from the same state-size formulas either way.
type globalSnapshot struct {
	global  int64
	bound   int64
	retired []bool

	cores []*core.Snapshot
	unc   *uncore.Snapshot
	mem   *mem.Memory
	sync  *syncctl.Controller
	det   *violation.Detector
	ctrl  *adaptive.Controller

	inQs [][]event.Msg
	outs [][]event.Request
	gq   []pendingReq

	lastAdapt int64
	words     int64
}

// capture copies the simulation state into the machine's pooled snapshot
// graph, replacing the previous checkpoint (old checkpoints are discarded
// as the paper does to release resources). The reference path, and the
// first checkpoint of the incremental path, deep-copy every component;
// later incremental boundaries copy only dirty component state. Every
// boundary recycles the same backing arrays and component snapshots. The
// synchronization controller, the violation detector and the engine-level
// slices copy in place at every boundary — their state is tiny and has no
// single mutation funnel to track. The caller must have the machine
// quiesced: no core may tick until capture returns.
//
//slacksim:hotpath
func (g *manager) capture() *globalSnapshot {
	m := g.m
	s := m.snapGraph()
	s.global = g.global
	s.bound = g.bound
	s.lastAdapt = g.lastAdapt
	s.retired = append(s.retired[:0], g.retired...)
	s.gq = append(s.gq[:0], g.gq...)
	if g.snap == nil || g.cfg.DeepCheckpoint {
		m.unc.SnapshotInto(s.unc)
		m.mem.SnapshotInto(s.mem)
		m.sync.SnapshotInto(s.sync)
		for i, c := range m.cores {
			c.SnapshotInto(s.cores[i])
		}
		if !g.cfg.DeepCheckpoint {
			// From now on every boundary needs only the dirty state. On the
			// parallel host the next round's release publishes the track
			// flags to the workers.
			m.startTracking()
		}
	} else {
		m.unc.SyncSnapshot(s.unc)
		m.mem.SyncSnapshot(s.mem)
		m.sync.SyncSnapshot(s.sync)
		for i, c := range m.cores {
			c.SyncSnapshot(s.cores[i])
		}
	}
	m.det.CopyInto(s.det)
	if g.ctrl == nil {
		s.ctrl = nil
	} else if s.ctrl == nil {
		s.ctrl = g.ctrl.Snapshot()
	} else {
		s.ctrl.Restore(g.ctrl)
	}
	for i := range m.inQs {
		s.inQs[i] = m.inQs[i].SnapshotInto(s.inQs[i])
		s.outs[i] = m.outQs[i].SnapshotInto(s.outs[i])
	}
	// Checkpoint words are computed from the same formulas on both paths
	// (the synced snapshot's lengths equal the live machine's), keeping
	// HostWorkUnits — and therefore Results — identical.
	s.words = int64(m.mem.AllocatedWords() + m.unc.StateWords())
	for _, cs := range s.cores {
		s.words += int64(cs.StateWords())
	}
	g.snap = s
	return s
}

// takeCheckpoint captures the state and charges the checkpoint: the copies
// are made for real so the host-side overhead is real, and the words feed
// the cost model's simulated fork cost. Without rollback the snapshot is
// simply never restored, exactly like the paper's Table 2 runs where
// "checkpoints always succeed".
//
//slacksim:hotpath
func (g *manager) takeCheckpoint() {
	s := g.capture()
	g.ckpts++
	g.ckptWords += s.words
	g.meter.ckptWords += s.words
	if g.cfg.MemRecorder != nil {
		// Mark the retire streams so a rollback can truncate exactly the
		// state the engine restore discards.
		g.cfg.MemRecorder.Checkpoint()
	}
	if g.cfg.Tracer.Enabled() {
		g.cfg.Tracer.Addf(g.global, -1, trace.Checkpoint, "ckpt %d (%d words)", g.ckpts, s.words)
	}
}

// doRollback restores the last checkpoint and enters cycle-by-cycle replay
// until the next checkpoint boundary to guarantee forward progress.
//
//slacksim:hotpath
func (r *detRun) doRollback() {
	s := r.snap
	r.pendingRollback = false
	r.rollbacks++
	r.wasted += r.global - s.global
	if r.cfg.Tracer.Enabled() {
		r.cfg.Tracer.Addf(r.global, -1, trace.Rollback,
			"#%d to @%d (wasted %d cycles)", r.rollbacks, s.global, r.global-s.global)
	}

	r.global = s.global
	r.bound = s.bound
	copy(r.retired, s.retired)
	r.lastAdapt = s.lastAdapt
	r.gq = append(r.gq[:0], s.gq...)
	if r.cfg.DeepCheckpoint {
		r.m.unc.Restore(s.unc)
		r.m.mem.Restore(s.mem)
	} else {
		// Undo only the state dirtied since the boundary.
		r.m.unc.RestoreDirty(s.unc)
		r.m.mem.RestoreDirty(s.mem)
	}
	r.m.sync.Restore(s.sync)
	r.m.det.Restore(s.det)
	if r.ctrl != nil && s.ctrl != nil {
		r.ctrl.Restore(s.ctrl)
	}
	for i, c := range r.m.cores {
		if r.cfg.DeepCheckpoint {
			c.Restore(s.cores[i])
		} else {
			c.RestoreIncremental(s.cores[i])
		}
		r.m.inQs[i].Restore(s.inQs[i])
		r.m.outQs[i].Restore(s.outs[i])
	}
	r.meter.rbackWords += s.words
	if r.cfg.MemRecorder != nil {
		// Drop everything recorded since the checkpoint; the replay below
		// re-records the window as it re-commits.
		r.cfg.MemRecorder.Rollback()
	}

	// Replay in cycle-by-cycle mode until the boundary we were heading
	// for; the new checkpoint there resumes slack simulation.
	r.replayUntil = r.nextCkpt
}
