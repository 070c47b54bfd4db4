package engine

import (
	"slacksim/internal/core"
	"slacksim/internal/sampling"
)

// MemRecorder receives the architectural retire stream of every core plus
// the engine's checkpoint lifecycle, so a speculative run records
// correctly: Checkpoint marks the streams at every boundary and Rollback
// truncates back to the marks before the cycle-by-cycle replay re-records
// the window. internal/memtrace.Recorder is the standard implementation.
//
// On the parallel host RecordOp is called concurrently from the core
// goroutines (one core index per goroutine); Checkpoint is only called at
// quiesced boundaries. The deterministic host is single-threaded.
type MemRecorder interface {
	core.OpRecorder
	Checkpoint()
	Rollback()
}

// sampleState is the deterministic host's interval-sampling cursor. The
// run is cut into intervals of at least Plan.IntervalInsts committed
// instructions (machine-wide); the cursor closes an interval at the first
// pacing step past its boundary, feeds it to the estimator, and flips the
// engine's effective mode: detailed intervals run cycle-accurate CC,
// fast-forward intervals run with unbounded slack — the warmed functional
// mode (caches, predictors, and the memory image stay live; only the
// manager's pacing work is skipped).
type sampleState struct {
	plan sampling.Plan
	est  *sampling.Estimator

	idx         int
	detailed    bool
	startCycles int64
	startInsts  uint64
	nextBound   uint64
}

func newSampleState(plan sampling.Plan) *sampleState {
	return &sampleState{
		plan:      plan,
		est:       sampling.NewEstimator(plan),
		detailed:  plan.Detailed(0),
		nextBound: plan.IntervalInsts,
	}
}

// sampleStep closes the current interval once the machine's committed
// instruction count, as the loop observed it, has passed its boundary and
// opens the next. Called from the engine loop after global time is
// recomputed, so interval cycle counts are consistent.
func (r *detRun) sampleStep(committed uint64) {
	s := r.samp
	if committed < s.nextBound {
		return
	}
	s.close(r.global, committed)
	r.fastForward = !s.detailed
}

func (s *sampleState) close(global int64, committed uint64) {
	cycles := global - s.startCycles
	insts := int64(committed - s.startInsts)
	if s.detailed {
		s.est.AddDetailed(cycles, insts)
	} else {
		s.est.AddFastForward(cycles, insts)
	}
	s.idx++
	s.detailed = s.plan.Detailed(s.idx)
	s.startCycles = global
	s.startInsts = committed
	s.nextBound = committed + s.plan.IntervalInsts
}

// finish closes the trailing partial interval and returns the report.
func (s *sampleState) finish(global int64, committed uint64) *sampling.Report {
	if committed > s.startInsts {
		s.close(global, committed)
	}
	rep := s.est.Report()
	return &rep
}
