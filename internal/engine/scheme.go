// Package engine implements the simulation kernel of SlackSim: the
// local-time / max-local-time / global-time pacing protocol, the slack
// schemes (cycle-by-cycle, bounded, unbounded, quantum, adaptive), and the
// speculative checkpoint/rollback machinery. Two hosts drive the same
// machine model: a seeded deterministic host that reproducibly emulates
// host-thread interleaving (used for accuracy experiments on any machine)
// and a goroutine-parallel host that ticks static partitions of the cores
// on GOMAXPROCS workers in bulk-synchronous rounds.
package engine

import (
	"fmt"

	"slacksim/internal/adaptive"
)

// SchemeKind selects the synchronization discipline between simulation
// threads.
type SchemeKind uint8

// Scheme kinds.
const (
	// CC is cycle-by-cycle simulation, the gold standard: every core
	// advances in lockstep and the manager services events conservatively
	// in timestamp order, so results are exact and deterministic.
	CC SchemeKind = iota
	// Bounded keeps all core clocks within a fixed slack bound of the
	// global time and services events eagerly.
	Bounded
	// Unbounded lets cores run free (the paper's SU).
	Unbounded
	// Quantum barriers all cores every Quantum cycles (WWT-II style),
	// servicing eagerly inside the quantum.
	Quantum
	// Adaptive is Bounded with the slack bound steered by the adaptive
	// controller to hold a target violation rate.
	Adaptive
	// LaxP2P is Graphite's random-pairwise synchronization, which the
	// paper singles out as an interesting approach to explore: every
	// SyncPeriod cycles a core picks a random other core and, if it has
	// run more than P2PMaxAhead cycles past it, waits for the partner to
	// catch up. There is no global wall at all.
	LaxP2P
)

// String names the scheme kind.
func (k SchemeKind) String() string {
	switch k {
	case CC:
		return "cycle-by-cycle"
	case Bounded:
		return "bounded"
	case Unbounded:
		return "unbounded"
	case Quantum:
		return "quantum"
	case Adaptive:
		return "adaptive"
	case LaxP2P:
		return "lax-p2p"
	}
	return fmt.Sprintf("SchemeKind(%d)", uint8(k))
}

// Scheme is a fully-parameterized synchronization scheme.
type Scheme struct {
	Kind SchemeKind
	// Bound is the slack bound for Bounded.
	Bound int64
	// Quantum is the barrier period for Quantum.
	Quantum int64
	// Adaptive configures the controller for Adaptive.
	Adaptive adaptive.Config
	// SyncPeriod and P2PMaxAhead configure LaxP2P.
	SyncPeriod, P2PMaxAhead int64
}

// CycleByCycle returns the gold-standard scheme.
func CycleByCycle() Scheme { return Scheme{Kind: CC} }

// BoundedSlack returns a bounded slack scheme with the given bound.
func BoundedSlack(bound int64) Scheme { return Scheme{Kind: Bounded, Bound: bound} }

// UnboundedSlack returns the SU scheme.
func UnboundedSlack() Scheme { return Scheme{Kind: Unbounded} }

// QuantumScheme returns a quantum simulation with period q.
func QuantumScheme(q int64) Scheme { return Scheme{Kind: Quantum, Quantum: q} }

// AdaptiveSlack returns an adaptive scheme with the given controller
// configuration.
func AdaptiveSlack(cfg adaptive.Config) Scheme { return Scheme{Kind: Adaptive, Adaptive: cfg} }

// LaxP2PScheme returns Graphite-style random-pairwise synchronization:
// every period cycles a core syncs with one random partner, waiting when
// it is more than maxAhead cycles past it.
func LaxP2PScheme(period, maxAhead int64) Scheme {
	return Scheme{Kind: LaxP2P, SyncPeriod: period, P2PMaxAhead: maxAhead}
}

// Validate reports scheme parameter errors.
func (s Scheme) Validate() error {
	switch s.Kind {
	case Bounded:
		if s.Bound < 1 {
			return fmt.Errorf("engine: bounded slack needs Bound >= 1, got %d", s.Bound)
		}
	case Quantum:
		if s.Quantum < 1 {
			return fmt.Errorf("engine: quantum needs Quantum >= 1, got %d", s.Quantum)
		}
	case Adaptive:
		return s.Adaptive.Validate()
	case LaxP2P:
		if s.SyncPeriod < 1 || s.P2PMaxAhead < 0 {
			return fmt.Errorf("engine: lax-p2p needs SyncPeriod >= 1 and P2PMaxAhead >= 0")
		}
	}
	return nil
}

// Name returns a short label for tables ("CC", "S5", "SU", "Q100",
// "adaptive").
func (s Scheme) Name() string {
	switch s.Kind {
	case CC:
		return "CC"
	case Bounded:
		return fmt.Sprintf("S%d", s.Bound)
	case Unbounded:
		return "SU"
	case Quantum:
		return fmt.Sprintf("Q%d", s.Quantum)
	case Adaptive:
		return "adaptive"
	case LaxP2P:
		return fmt.Sprintf("P2P%d", s.SyncPeriod)
	}
	return s.Kind.String()
}

// conservative reports whether the manager must hold events back and
// service them in timestamp order (exact simulation).
func (s Scheme) conservative() bool { return s.Kind == CC }

// unboundedSentinel is "infinitely far in the future" for max local times.
const unboundedSentinel = int64(1) << 62

// maxLocalFor computes the max local time for the scheme given the current
// global time and the current (possibly adaptive) bound.
func maxLocalFor(kind SchemeKind, global, bound, quantum int64) int64 {
	switch kind {
	case CC:
		return global + 1
	case Bounded, Adaptive:
		return global + bound
	case Unbounded:
		return unboundedSentinel
	case Quantum:
		return (global/quantum + 1) * quantum
	case LaxP2P:
		// Pairwise gating replaces the global wall entirely.
		return unboundedSentinel
	}
	return global + 1
}
