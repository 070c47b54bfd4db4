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
// processes forming a global checkpoint (Section 5.1). Every boundary
// copies the whole simulation into it, like re-fork()ing the whole process
// set; the copies land in the previous checkpoint's backing storage, so
// after warm-up a checkpoint allocates nothing.
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
// as the paper does to release resources). Every component is copied in
// full, into the same backing arrays and component snapshots each time.
// The caller must have the machine quiesced: no core may tick until
// capture returns.
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
	m.unc.SnapshotInto(s.unc)
	m.mem.SnapshotInto(s.mem)
	m.sync.SnapshotInto(s.sync)
	for i, c := range m.cores {
		c.SnapshotInto(s.cores[i])
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
	r.m.unc.Restore(s.unc)
	r.m.mem.Restore(s.mem)
	r.m.sync.Restore(s.sync)
	r.m.det.Restore(s.det)
	if r.ctrl != nil && s.ctrl != nil {
		r.ctrl.Restore(s.ctrl)
	}
	for i, c := range r.m.cores {
		c.Restore(s.cores[i])
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
