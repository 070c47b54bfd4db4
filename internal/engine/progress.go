package engine

import "errors"

// ErrInterrupted reports that a run was stopped early because
// RunConfig.Interrupt was raised (for example when a service cancels a
// running job). The machine state is left mid-run and must be discarded.
var ErrInterrupted = errors.New("engine: run interrupted")

// DefaultProgressEvery is the default minimum global-time advance, in
// simulated cycles, between two OnProgress deliveries.
const DefaultProgressEvery = 1024

// Progress is a snapshot of a run's forward motion, delivered through
// RunConfig.OnProgress. Counter is the same monotone progress counter the
// parallel host's stall watchdog polls (the sum of every core's local
// time, committed instructions, and retirement flag), so an external
// observer and the watchdog always agree on whether the run is moving.
type Progress struct {
	// Cycles is the global time (the minimum active local time).
	Cycles int64 `json:"cycles"`
	// Committed is the total committed instruction count across cores.
	Committed uint64 `json:"committed"`
	// Counter is the monotone progress counter (see the type comment).
	Counter uint64 `json:"counter"`
}

// progressNotifier rate-limits and monotonizes OnProgress deliveries. It
// is single-goroutine state: the deterministic host calls maybe from its
// run loop and the parallel host only from the manager goroutine, so the
// callback never runs concurrently with itself.
type progressNotifier struct {
	fn            func(Progress)
	every         int64
	fired         bool
	lastGlobal    int64
	lastCounter   uint64
	lastCommitted uint64
}

func newProgressNotifier(cfg RunConfig) *progressNotifier {
	if cfg.OnProgress == nil {
		return nil
	}
	every := cfg.ProgressEvery
	if every <= 0 {
		every = DefaultProgressEvery
	}
	return &progressNotifier{fn: cfg.OnProgress, every: every}
}

// maybe delivers a snapshot when the run has advanced at least `every`
// global cycles since the last delivery, the counter strictly increased,
// and neither the global time nor the committed count went backwards (a
// rollback restore rewinds all three; those windows are silently skipped
// so subscribers always observe a monotone sequence). The first call
// always fires, giving subscribers an immediate baseline.
func (p *progressNotifier) maybe(global int64, committed, counter uint64) {
	if p == nil {
		return
	}
	if p.fired {
		if global < p.lastGlobal+p.every {
			return
		}
		if counter <= p.lastCounter || committed < p.lastCommitted {
			return
		}
	}
	p.fired = true
	p.lastGlobal = global
	p.lastCounter = counter
	p.lastCommitted = committed
	p.fn(Progress{Cycles: global, Committed: committed, Counter: counter})
}

// interrupted reports whether the external interrupt flag is raised.
func (cfg *RunConfig) interrupted() bool {
	return cfg.Interrupt != nil && cfg.Interrupt.Load()
}
