package mem

import (
	"bytes"
	"testing"

	"slacksim/internal/wire"
)

func encode(m *Memory) []byte {
	w := new(wire.Writer)
	m.Encode(w)
	return w.Bytes()
}

func TestMemoryWireRoundTrip(t *testing.T) {
	m := New()
	for i := uint64(0); i < 2000; i++ {
		m.Write(i*8*37, i+1) // spread across pages and leaves
	}
	got := New()
	got.Write(123456, 42) // stale content must be dropped by decode
	r := wire.NewReader(encode(m))
	if got.Decode(r); r.Done() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if !m.Equal(got) {
		t.Fatal("memory did not survive the wire round trip")
	}
	if m.AllocatedWords() != got.AllocatedWords() {
		t.Fatalf("allocated words %d != %d (cost model would diverge)",
			m.AllocatedWords(), got.AllocatedWords())
	}
}

// TestMemoryWireRejectsHostilePages: a page count over MaxPages, and a
// page number out of order or named twice, must not decode.
func TestMemoryWireRejectsHostilePages(t *testing.T) {
	image := func(pns ...uint64) []byte {
		w := new(wire.Writer)
		w.Uvarint(uint64(len(pns)))
		for _, pn := range pns {
			w.Uvarint(pn)
			for range PageWords {
				w.Uvarint(0)
			}
		}
		return w.Bytes()
	}
	over := new(wire.Writer)
	over.Uvarint(MaxPages + 1)
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"over MaxPages":  {over.Bytes(), "more than"},
		"named twice":    {image(3, 3), "named twice"},
		"out of order":   {image(7, 3), "out of order"},
		"count past end": {image(1, 2)[:600], "truncated"},
	} {
		r := wire.NewReader(tc.data)
		if New().Decode(r); r.Err() == nil || !bytes.Contains([]byte(r.Err().Error()), []byte(tc.want)) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, r.Err(), tc.want)
		}
	}
}

// wireSeed is a small image spread over the dense range and the sparse
// map above it.
func wireSeed() *Memory {
	m := New()
	m.Write(0x1008, 1)
	m.Write(0x0800_0040, 2)
	m.Write(5<<32, 7)
	m.Write(0x10_0000, 0) // an allocated zero page
	return m
}

// FuzzMemoryWire feeds arbitrary bytes to the image's decoder. It must
// never panic, and whatever it accepts must re-encode to exactly the
// input: the encoding is canonical, so an image has one encoding.
func FuzzMemoryWire(f *testing.F) {
	good := encode(wireSeed())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, r := New(), wire.NewReader(data)
		if m.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}
