package uncore

import (
	"bytes"
	"testing"

	"slacksim/internal/coherence"
	"slacksim/internal/event"
	"slacksim/internal/violation"
	"slacksim/internal/wire"
)

func encode(s *Snapshot) []byte {
	w := new(wire.Writer)
	s.Encode(w)
	return w.Bytes()
}

// served is a two-core uncore with a 1 KiB L2 after a few transactions.
func served(tb testing.TB) *Uncore {
	cfg := DefaultConfig(2)
	cfg.L2.SizeBytes = 1 << 10
	u, err := New(cfg, []*event.Queue[event.Msg]{event.NewQueue[event.Msg](), event.NewQueue[event.Msg]()}, violation.NewDetector())
	if err != nil {
		tb.Fatal(err)
	}
	u.Service(req(0, coherence.BusRdX, 0xA0, 1))
	u.Service(req(1, coherence.BusRd, 0xA0, 4))
	u.Service(req(1, coherence.BusRd, 0xC4, 2))
	return u
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	u := served(t)
	got, r := new(Snapshot), wire.NewReader(encode(u.Snapshot()))
	if got.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	if err := u.CheckSnapshot(got, 1<<20); err != nil {
		t.Fatal(err)
	}
	fresh := served(t)
	fresh.Reset()
	if fresh.Restore(got); !fresh.StateEqual(u) {
		t.Fatal("uncore did not survive the wire round trip")
	}
}

// FuzzSnapshotWire feeds arbitrary bytes to the snapshot's decoder. It
// must never panic, and whatever it accepts must re-encode to exactly
// the input.
func FuzzSnapshotWire(f *testing.F) {
	good := encode(served(f).Snapshot())
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
