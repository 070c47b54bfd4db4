// Fixture for the interprocedural side of hotpathalloc: allocations
// propagate bottom-up through call-graph summaries, waivers at the
// callee clear its summary, cold-path conventions (panic arguments,
// Enabled() guards) are exempt, and recursion and interface dispatch
// resolve soundly.
package hotpathinter

import (
	"fmt"
	"strings"
)

type ring struct {
	on  bool
	buf []byte
}

func (r *ring) Enabled() bool { return r.on }

// note grows r.buf: its summary allocates.
func (r *ring) note(v int) {
	r.buf = append(r.buf, byte(v))
}

// noteWaived grows too, but the waiver covers every caller.
func (r *ring) noteWaived(v int) {
	r.buf = append(r.buf, byte(v)) //lint:allow hotpathalloc -- resize is rare and amortized across drains
}

//slacksim:hotpath
func (r *ring) hotCalls(v int) {
	r.note(v) // want `call to note .* allocates: append to r.buf`
}

//slacksim:hotpath
func (r *ring) hotCallsWaived(v int) {
	r.noteWaived(v)
}

//slacksim:hotpath
func (r *ring) hotGuarded(v int) {
	if r.Enabled() {
		r.note(v) // cold diagnostic path: exempt by convention
	}
}

//slacksim:hotpath
func (r *ring) hotGuardedConjunct(v int) {
	if v > 0 && r.Enabled() {
		r.note(v)
	}
}

//slacksim:hotpath
func (r *ring) hotNegatedGuard(v int) {
	if !r.Enabled() {
		return
	}
	r.note(v) // want `call to note .* allocates` — only the positive-guard idiom is exempt
}

// inner/middle: a two-hop chain.
func (r *ring) inner() *ring {
	return &ring{}
}

func (r *ring) middle() {
	_ = r.inner()
}

//slacksim:hotpath
func (r *ring) hotDeep() {
	r.middle() // want `call to middle .* allocates: call to inner`
}

// even/odd: mutual recursion must converge (empty summaries) without
// tripping the fixpoint cap.
func (r *ring) even(n int) bool {
	if n == 0 {
		return true
	}
	return r.odd(n - 1)
}

func (r *ring) odd(n int) bool {
	if n == 0 {
		return false
	}
	return r.even(n - 1)
}

//slacksim:hotpath
func (r *ring) hotRecursion(n int) bool {
	return r.even(n)
}

// growLoop allocates and recurses: the cycle's summary must reach the
// allocating fixpoint, not oscillate.
func (r *ring) growLoop(n int) {
	if n == 0 {
		return
	}
	r.buf = append(r.buf, 0)
	r.growLoop(n - 1)
}

//slacksim:hotpath
func (r *ring) hotRecursiveAlloc(n int) {
	r.growLoop(n) // want `call to growLoop .* allocates`
}

// Interface dispatch: the hub joins over every in-program
// implementation, so one allocating impl taints the call.
type sink interface {
	consume(b []byte)
}

type keeper struct{ dst [][]byte }

func (k *keeper) consume(b []byte) {
	k.dst = append(k.dst, b)
}

type dropper struct{}

func (d *dropper) consume(b []byte) {}

//slacksim:hotpath
func feed(s sink, b []byte) {
	s.consume(b) // want `dispatches to consume`
}

// Variadic boxing and the external denylist.
func vsum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

//slacksim:hotpath
func hotBox(a, b int) int {
	return vsum(a, b) // want `boxes its variadic arguments`
}

//slacksim:hotpath
func hotSpread(xs []int) int {
	return vsum(xs...)
}

//slacksim:hotpath
func hotJoin(parts []string) string {
	return strings.Join(parts, ",") // want `call to strings.Join .* allocates`
}

//slacksim:hotpath
func mustPositive(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bad v=%d", v)) // panic arguments are cold: exempt
	}
}

// stack is generic: calls reach its methods through an instantiation,
// and the summaries must still find the declared method.
type stack[T any] struct{ items []T }

func (s *stack[T]) push(v T) { s.items = append(s.items, v) }

//slacksim:hotpath
func (s *stack[T]) hotPush(v T) {
	s.push(v) // want `call to push .* allocates: append to s.items`
}

//slacksim:hotpath
func hotPushInt(s *stack[int]) {
	s.push(1) // want `call to push .* allocates: append to s.items`
}
