package syncctl

import (
	"bytes"
	"strings"
	"testing"

	"slacksim/internal/wire"
)

func encode(c *Controller) []byte {
	w := new(wire.Writer)
	c.Encode(w)
	return w.Bytes()
}

func TestControllerWireRoundTrip(t *testing.T) {
	c := New(4)
	if !c.TryLock(0x100, 2, 10) {
		t.Fatal("TryLock failed on free lock")
	}
	c.TryLock(0x100, 3, 11) // contended
	c.BarrierArrive(1, 0, 20)
	c.BarrierArrive(1, 1, 21)

	got, r := New(4), wire.NewReader(encode(c))
	if got.Decode(r); r.Done() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if got.HeldBy(0x100) != 2 {
		t.Fatalf("lock owner = %d, want 2", got.HeldBy(0x100))
	}
	if got.WaitingAt(1) != 2 {
		t.Fatalf("barrier arrivals = %d, want 2", got.WaitingAt(1))
	}
	if got.Counts() != c.Counts() {
		t.Fatal("counters did not survive the wire round trip")
	}
	// The barrier must still release correctly on the decoded side.
	got.BarrierArrive(1, 2, 22)
	got.BarrierArrive(1, 3, 23)
	if n := got.Counts().BarrierEpisodes; n != 1 {
		t.Fatalf("barrier episodes = %d, want 1", n)
	}
}

// section writes a two-core controller's encoding from its parts, in the
// order Encode writes them, so a test can state what no controller holds:
// locks are (address, owner plus one, release time plus one) and
// barriers (ID, arrivals, generation, release time plus one, waiters...).
func section(cores int, locks [][3]int64, barriers ...[]int64) []byte {
	w := new(wire.Writer)
	w.Int(cores)
	w.Uvarint(uint64(len(locks)))
	for _, l := range locks {
		w.Uvarint(uint64(l[0]))
		w.Varint(l[1])
		w.Varint(l[2])
	}
	w.Uvarint(uint64(len(barriers)))
	for _, b := range barriers {
		w.Varint(b[0])
		w.Varint(b[1])
		w.Uvarint(uint64(b[2]))
		w.Varint(b[3])
		wire.List(w, b[4:], w.Varint)
	}
	for range cores * 4 {
		w.Uvarint(0)
	}
	return w.Bytes()
}

// TestControllerWireRejectsHostileState: a controller for another core
// count, a lock owner or barrier waiter naming a core the machine lacks
// (the controller indexes its per-core slots by them), a key named twice,
// a waiter listed twice or at two barriers (a core records one last
// arrival), and an arrival count that does not match the waiters must not
// decode; the same parts, well formed, must.
func TestControllerWireRejectsHostileState(t *testing.T) {
	lock := func(owner int64) [3]int64 { return [3]int64{1 << 40, owner + 1, 4} }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"valid lock and barrier", section(2, [][3]int64{lock(1)}, []int64{1 << 40, 1, 2, 6, 1}), ""},
		{"three cores", section(3, nil), "controller for 3 cores"},
		{"lock owned by core 2", section(2, [][3]int64{lock(2)}), "held by core 2"},
		{"lock owned by core -2", section(2, [][3]int64{lock(-2)}), "held by core -2"},
		{"lock named twice", section(2, [][3]int64{lock(0), lock(-1)}), "named twice"},
		{"waiter 5", section(2, nil, []int64{1, 1, 0, 0, 5}), "waiter 5 outside"},
		{"waiter -1", section(2, nil, []int64{1, 1, 0, 0, -1}), "waiter -1 outside"},
		{"waiter listed twice", section(2, nil, []int64{1, 2, 0, 0, 0, 0}), "waiter 0 outside"},
		{"waiter at two barriers", section(2, nil, []int64{1, 1, 0, 0, 0}, []int64{2, 1, 0, 0, 0}), "waiting twice"},
		{"barrier named twice", section(2, nil, []int64{1, 0, 0, 0}, []int64{1, 0, 0, 0}), "named twice"},
		{"arrived without waiters", section(2, nil, []int64{1, 1, 0, 0}), "1 arrived with 0 waiting"},
		{"every core waiting", section(2, nil, []int64{1, 2, 0, 0, 0, 1}), "2 arrived with 2 waiting"},
	}
	for _, tc := range cases {
		r := wire.NewReader(tc.data)
		New(2).Decode(r)
		switch err := r.Done(); {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// wireSeed is a 4-core controller with held, free and sparse-map locks
// and barriers with and without waiters.
func wireSeed() *Controller {
	c := New(4)
	c.TryLock(0x100, 2, 10)
	c.TryLock(0x140, 1, 11)
	c.Unlock(0x140, 1, 12)
	c.TryLock(^uint64(0), 3, 13) // the one key with no table slot
	c.BarrierArrive(1, 0, 20)
	c.BarrierArrive(1, 1, 21)
	c.BarrierArrive(-1, 2, 22)
	return c
}

// FuzzControllerWire feeds arbitrary bytes to the controller's decoder,
// into a 4-core controller. It must never panic, and whatever it accepts
// must re-encode to exactly the input: the encoding is canonical, so a
// controller has one encoding.
func FuzzControllerWire(f *testing.F) {
	good := encode(wireSeed())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, r := New(4), wire.NewReader(data)
		if c.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(c); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}
