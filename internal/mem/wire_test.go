package mem

import (
	"bytes"
	"encoding/gob"
	"testing"
)

func TestMemoryWireRoundTrip(t *testing.T) {
	m := New()
	for i := uint64(0); i < 2000; i++ {
		m.Write(i*8*37, i+1) // spread across pages and shards
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := New()
	got.Write(123456, 42) // stale content must be dropped by decode
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !m.Equal(got) {
		t.Fatal("memory did not survive the wire round trip")
	}
	if m.AllocatedWords() != got.AllocatedWords() {
		t.Fatalf("allocated words %d != %d (cost model would diverge)",
			m.AllocatedWords(), got.AllocatedWords())
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

// FuzzMemoryWire feeds arbitrary bytes to the image's wire decoder. It
// must never panic, and whatever it accepts must re-encode to the bytes
// of its canonical encoding: decoding those gives an equal image that
// re-encodes to the same bytes. Byte identity with the input itself
// cannot hold, because gob gives one value many encodings (it skips a
// field whose name it does not know, for one); the decoder does reject
// every page order but the encoder's.
func FuzzMemoryWire(f *testing.F) {
	good, err := wireSeed().GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New()
		if err := m.GobDecode(data); err != nil {
			return
		}
		enc, err := m.GobEncode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again := New()
		if err := again.GobDecode(enc); err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		if enc2, _ := again.GobEncode(); !bytes.Equal(enc, enc2) || !again.Equal(m) || again.AllocatedWords() != m.AllocatedWords() {
			t.Fatal("canonical encoding does not round-trip")
		}
	})
}
