package core

import (
	"bytes"
	"strings"
	"testing"

	"slacksim/internal/isa"
	"slacksim/internal/wire"
)

func encode(s *Snapshot) []byte {
	w := new(wire.Writer)
	s.Encode(w)
	return w.Bytes()
}

// midFlight returns a core stopped with loads, stores and a branch in
// flight, and its snapshot.
func midFlight(tb testing.TB) (*Core, *Snapshot) {
	h := newHarness(tb, func(b *isa.Builder) {
		b.Li(3, 40)
		b.Li(6, 0x3000)
		top := b.Here()
		b.Load(5, 6, 0)
		b.Op3(isa.Add, 4, 4, 5)
		b.Store(4, 6, 8)
		b.Subi(3, 3, 1)
		b.Bne(3, isa.Zero, top)
		b.Halt()
	})
	for i := 0; i < 37; i++ {
		h.core.Tick()
		h.pump()
	}
	return h.core, h.core.Snapshot()
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	c, s := midFlight(t)
	if len(s.rob) < 3 {
		t.Fatalf("%d instructions in flight; the test needs 3", len(s.rob))
	}
	got, r := new(Snapshot), wire.NewReader(encode(s))
	if got.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	if err := c.CheckSnapshot(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(got), encode(s)) {
		t.Fatal("decoded snapshot encodes differently")
	}
}

// TestCheckSnapshotRejectsMissingState: a snapshot without one of its
// caches, MSHR files or predictor cannot be restored. The wire format
// always carries them, so only a snapshot built in process can lack one.
func TestCheckSnapshotRejectsMissingState(t *testing.T) {
	c, s := midFlight(t)
	s.l1d = nil
	if err := c.CheckSnapshot(s); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want one mentioning missing state", err)
	}
}

// FuzzSnapshotWire feeds arbitrary bytes to the snapshot's decoder. It
// must never panic, and whatever it accepts must re-encode to exactly
// the input.
func FuzzSnapshotWire(f *testing.F) {
	_, s := midFlight(f)
	good := encode(s)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, r := new(Snapshot), wire.NewReader(data)
		if s.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(s); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}
