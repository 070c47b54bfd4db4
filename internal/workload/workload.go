// Package workload provides the benchmark programs the simulator runs:
// reimplementations of the four SPLASH-2 kernels the paper evaluates
// (Barnes, FFT, LU, Water-Nsquared) plus microbenchmarks, all written as
// real programs for the target ISA via the isa.Builder.
//
// The originals cannot be run (they are C programs compiled to SimpleScalar
// PISA); these kernels reproduce what slack simulation is sensitive to —
// the sharing and synchronization patterns: barrier-phased stages with
// partner exchange (FFT), owner-computes with broadcast rows (LU),
// lock-protected tree updates and read-shared traversals (Barnes), and
// O(N²) pair interactions with per-molecule accumulation locks
// (Water-Nsquared). Each kernel is functionally real: a Go reference
// implementation computes the expected memory image and Verify checks the
// simulated result bit-for-bit, so the whole stack (ISA semantics, OoO
// core, coherence, slack engine) is validated end to end.
package workload

import (
	"fmt"

	"slacksim/internal/isa"
	"slacksim/internal/mem"
)

// Workload is the contract every benchmark satisfies; it is structurally
// identical to engine.Workload so any value here plugs straight into the
// engine.
type Workload interface {
	Name() string
	Programs(numCores int) ([]*isa.Program, error)
	InitMemory(m *mem.Memory) error
}

// Address-space layout. All data lives well below the per-core code images
// (0x1000_0000_0000 + core<<32) so instruction and data lines never alias.
const (
	// SharedBase is where each workload's shared arrays start.
	SharedBase uint64 = 0x0100_0000
	// LockBase is where lock words live (one word each, spaced a line
	// apart to avoid false sharing between locks).
	LockBase uint64 = 0x0800_0000
	// LockStride spaces lock words one cache line apart.
	LockStride uint64 = 64
	// PrivateBase returns the start of a core's private region.
	privateBase uint64 = 0x4000_0000
	// PrivateStride spaces the per-core private regions.
	privateStride uint64 = 0x0100_0000
)

// PrivateBase returns the base address of core tid's private region.
func PrivateBase(tid int) uint64 {
	return privateBase + uint64(tid)*privateStride
}

// LockAddr returns the address of lock word i.
func LockAddr(i int) uint64 {
	return LockBase + uint64(i)*LockStride
}

// Verifier is implemented by workloads that can check the simulated memory
// image against a functional reference.
type Verifier interface {
	Verify(m *mem.Memory) error
}

// CoreVerifier is implemented by workloads whose result layout depends on
// the machine size. Their Verify falls back on the core count of the last
// Programs call, which a pooled machine skips when it reuses compiled
// programs, so a caller that knows the machine size passes it instead.
type CoreVerifier interface {
	VerifyCores(m *mem.Memory, numCores int) error
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// log2 returns floor(log2(v)) for positive v.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// splitRange returns the half-open [lo,hi) share of work items that core
// tid of p cores owns, distributing any remainder to the low cores.
func splitRange(items, tid, p int) (lo, hi int) {
	base := items / p
	rem := items % p
	lo = tid*base + min(tid, rem)
	sz := base
	if tid < rem {
		sz++
	}
	return lo, lo + sz
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ByName constructs a workload by its registry name with a size scale in
// [1..]; scale 1 is the quick test size, larger scales approach the
// paper's inputs. Unknown names return an error listing the choices.
func ByName(name string, scale int) (Workload, error) {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case "fft":
		return NewFFT(256 * scale), nil
	case "lu":
		return NewLU(16 * scale), nil
	case "barnes":
		return NewBarnes(64*scale, 2), nil
	case "water":
		return NewWater(32*scale, 2), nil
	case "ocean":
		return NewOcean(16*scale, 4), nil
	case "radix":
		return NewRadix(128 * scale), nil
	case "falseshare":
		return NewFalseShare(512 * scale), nil
	case "private":
		return NewPrivate(1024*scale, 2), nil
	default:
		return nil, fmt.Errorf("workload: unknown %q (want fft, lu, barnes, water, ocean, radix, falseshare, private)", name)
	}
}
