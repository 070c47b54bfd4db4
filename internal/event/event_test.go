package event

import (
	"testing"

	"slacksim/internal/coherence"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty succeeded")
	}
}

func TestQueuePeekAndDrain(t *testing.T) {
	q := NewQueue[string]()
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty succeeded")
	}
	q.Push("a")
	q.Push("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = (%q,%v)", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed")
	}
	d := q.DrainInto([]string{"x"})
	if len(d) != 3 || d[0] != "x" || d[1] != "a" || d[2] != "b" {
		t.Fatalf("DrainInto = %v, want [x a b]", d)
	}
	if q.Len() != 0 {
		t.Fatal("DrainInto left items")
	}
	if d := q.DrainInto(nil); d != nil {
		t.Fatalf("DrainInto on empty = %v", d)
	}
}

func TestQueueSnapshotRestore(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1)
	q.Push(2)
	snap := q.Snapshot()
	q.Pop()
	q.Push(3)
	q.Restore(snap)
	if q.Len() != 2 {
		t.Fatalf("restored Len = %d", q.Len())
	}
	v, _ := q.Pop()
	if v != 1 {
		t.Fatalf("restored head = %d, want 1", v)
	}
	// Restore must copy: mutating the queue must not affect the snapshot.
	if len(snap) != 2 {
		t.Fatal("snapshot changed")
	}
}

// TestQueueInterleavedFIFOAndRestore pushes and pops in uneven bursts,
// so the head index runs ahead, the backing array is reclaimed when the
// queue empties and reused by the next burst, and checkpoints the queue
// mid-stream. Every pop must return the next value in push order, a
// restore must replay exactly the checkpointed tail, and popped slots
// must be zeroed so a reused backing pins nothing.
func TestQueueInterleavedFIFOAndRestore(t *testing.T) {
	q := NewQueue[*int]()
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			v := next
			q.Push(&v)
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			v, ok := q.Pop()
			if !ok || *v != want {
				t.Fatalf("Pop = (%v, %v), want %d", v, ok, want)
			}
			want++
		}
	}
	var snap []*int
	snapWant := 0
	for round := 1; round <= 40; round++ {
		push(round % 7)
		pop(min(q.Len(), round%5))
		if q.head > 0 && q.items[q.head-1] != nil {
			t.Fatalf("round %d: popped slot still holds %d", round, *q.items[q.head-1])
		}
		if round == 17 {
			snap, snapWant = q.SnapshotInto(snap), want
		}
		if q.Len() != next-want {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), next-want)
		}
	}
	pop(q.Len())
	if q.head != 0 || len(q.items) != 0 {
		t.Fatalf("empty queue kept head %d, %d items", q.head, len(q.items))
	}

	q.Push(new(int)) // stale content that Restore must discard
	q.Restore(snap)
	snap[0] = nil // Restore must have copied, not aliased
	if q.Len() != len(snap) {
		t.Fatalf("restored Len = %d, want %d", q.Len(), len(snap))
	}
	want = snapWant
	pop(q.Len())
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after the restored tail succeeded")
	}
}

func TestRequestString(t *testing.T) {
	r := Request{ID: 3, Core: 1, Kind: coherence.BusRdX, LineAddr: 0x40, TS: 9}
	s := r.String()
	for _, want := range []string{"c1", "#3", "BusRdX", "0x40", "ts=9"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestMsgString(t *testing.T) {
	m := Msg{Kind: MsgInval, LineAddr: 0x10, NewState: coherence.Invalid, TS: 4}
	if !contains(m.String(), "inval") {
		t.Errorf("Msg.String = %q", m.String())
	}
	m2 := Msg{Kind: MsgReply, ReqID: 7, NewState: coherence.Modified, TS: 8}
	if !contains(m2.String(), "reply") {
		t.Errorf("Msg.String = %q", m2.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
