package bus

import (
	"bytes"
	"strings"
	"testing"

	"slacksim/internal/wire"
)

func encode(b *Bus) []byte {
	w := new(wire.Writer)
	b.Encode(w)
	return w.Bytes()
}

func TestBusWireRoundTrip(t *testing.T) {
	b := New(1, 4)
	for _, ts := range []int64{5, 3, 9, 9} {
		b.Grant(ts)
		b.ScheduleResponse(ts + 2)
	}
	var got Bus
	r := wire.NewReader(encode(b))
	if got.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	if !got.Equal(b) {
		t.Fatal("bus did not survive the wire round trip")
	}
}

// TestBusWireRejectsHostileShapes: a reservation window longer than the
// bus keeps, or an occupancy that is not positive, must not decode.
func TestBusWireRejectsHostileShapes(t *testing.T) {
	long := New(1, 1)
	for i := range int64(resWindow + 1) {
		long.respRes = append(long.respRes, i)
	}
	idle := New(1, 1)
	idle.ReqOccupancy = 0
	for name, tc := range map[string]struct {
		b    *Bus
		want string
	}{
		"window":    {long, "more than 128"},
		"occupancy": {idle, "must be positive"},
	} {
		r := wire.NewReader(encode(tc.b))
		if new(Bus).Decode(r); r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, r.Err(), tc.want)
		}
	}
}

// FuzzBusWire feeds arbitrary bytes to the bus's decoder. It must never
// panic, and whatever it accepts must re-encode to exactly the input.
func FuzzBusWire(f *testing.F) {
	b := New(1, 4)
	b.Grant(7)
	b.Grant(3)
	b.ScheduleResponse(9)
	good := encode(b)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Bus
		r := wire.NewReader(data)
		if b.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(&b); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}
