package syncctl

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestControllerWireRoundTrip(t *testing.T) {
	c := New(4)
	if !c.TryLock(0x100, 2, 10) {
		t.Fatal("TryLock failed on free lock")
	}
	c.TryLock(0x100, 3, 11) // contended
	c.BarrierArrive(1, 0, 20)
	c.BarrierArrive(1, 1, 21)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := New(4)
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(got); err != nil {
		t.Fatalf("decode: %v", err)
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

// FuzzControllerWire feeds arbitrary bytes to the controller's wire
// decoder, into a 4-core controller. It must never panic, and whatever
// it accepts must re-encode to the bytes of its canonical encoding:
// decoding those gives a controller that re-encodes to the same bytes.
// As for the memory image, byte identity with the input itself cannot
// hold because gob gives one value many encodings; the decoder does
// reject every key and waiter order but the encoder's.
func FuzzControllerWire(f *testing.F) {
	good, err := wireSeed().GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(4)
		if err := c.GobDecode(data); err != nil {
			return
		}
		enc, err := c.GobEncode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again := New(4)
		if err := again.GobDecode(enc); err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if enc2, _ := again.GobEncode(); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding does not round-trip")
		}
	})
}
