package adaptive

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
	c := MustNew(DefaultConfig())
	c.SetPolicy(AIAD)
	c.Update(0.5)
	c.Update(0)
	var got Controller
	r := wire.NewReader(encode(c))
	if got.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	if got != *c {
		t.Fatalf("decoded %+v, want %+v", got, *c)
	}
}

// TestControllerWireRejectsInvalidConfig: a configuration Validate
// rejects must not decode.
func TestControllerWireRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinBound = 0
	r := wire.NewReader(encode(&Controller{cfg: cfg}))
	if new(Controller).Decode(r); r.Err() == nil || !strings.Contains(r.Err().Error(), "MinBound") {
		t.Fatalf("err = %v, want a MinBound error", r.Err())
	}
}

// FuzzControllerWire feeds arbitrary bytes to the controller's decoder.
// It must never panic, and whatever it accepts must re-encode to exactly
// the input.
func FuzzControllerWire(f *testing.F) {
	good := encode(MustNew(DefaultConfig()))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Controller
		r := wire.NewReader(data)
		if c.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(&c); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}
