package cache

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"slacksim/internal/coherence"
	"slacksim/internal/wire"
)

// codec is a structure with a snapshot encoding.
type codec interface {
	Encode(*wire.Writer)
	Decode(*wire.Reader)
}

func encode(v codec) []byte {
	w := new(wire.Writer)
	v.Encode(w)
	return w.Bytes()
}

// roundTrip decodes in's encoding into out.
func roundTrip(t *testing.T, in, out codec) {
	t.Helper()
	r := wire.NewReader(encode(in))
	if out.Decode(r); r.Done() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
}

func TestCacheWireRoundTrip(t *testing.T) {
	c := New(Config{Name: "l1d", SizeBytes: 4 << 10, Assoc: 2, LatencyCycles: 1})
	for i := uint64(0); i < 200; i++ {
		c.Insert(i*7, coherence.State(1+i%3))
		c.Probe(i*7, i%2 == 0)
	}
	var got Cache
	roundTrip(t, c, &got)
	if !c.Equal(&got) {
		t.Fatal("cache did not survive the wire round trip")
	}
	// The decoded cache must be fully functional.
	got.Insert(9999, coherence.Modified)
	if got.State(9999) != coherence.Modified {
		t.Fatal("decoded cache is not functional")
	}
}

func TestMSHRWireRoundTrip(t *testing.T) {
	f := NewMSHRFile(8)
	f.Allocate(100, false, 3, 50)
	f.Allocate(100, true, 4, 51) // merge
	f.Allocate(200, true, 7, 60)
	var got MSHRFile
	roundTrip(t, f, &got)
	if !f.Equal(&got) {
		t.Fatal("MSHR file did not survive the wire round trip")
	}
}

func TestStatusMapWireRoundTrip(t *testing.T) {
	m := NewStatusMap(4)
	m.Apply(10, 0, coherence.Modified, 5)
	m.Apply(10, 1, coherence.Shared, 9)
	m.Apply(77, 3, coherence.Exclusive, 2)
	var got StatusMap
	roundTrip(t, m, &got)
	if !m.Equal(&got) {
		t.Fatal("status map did not survive the wire round trip")
	}
	if got.MonitorTS(10) != 9 {
		t.Fatalf("monitor TS = %d, want 9", got.MonitorTS(10))
	}
}

// TestStatusMapEncodeIsStable pins the wire form: the same contents must
// encode to the same bytes whatever their slot order, lines sorted by
// address, and decode back to an equal map.
func TestStatusMapEncodeIsStable(t *testing.T) {
	const want = "080402030000000210010100000e808801000000001880a0020000030050"
	m := NewStatusMap(4)
	m.Apply(0x9000, 2, coherence.Modified, 40)
	m.Apply(0x10, 0, coherence.Shared, 5)
	m.Apply(0x10, 1, coherence.Shared, 7)
	m.Apply(0x4400, 3, coherence.Exclusive, 12)
	m.Apply(0x4400, 3, coherence.Invalid, 11)
	m.Apply(0x2, 0, coherence.Modified, 1)
	b := encode(m)
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encoding changed:\ngot  %s\nwant %s", got, want)
	}
	var back StatusMap
	r := wire.NewReader(b)
	if back.Decode(r); r.Done() != nil || !back.Equal(m) {
		t.Fatalf("decode: err %v, equal %v", r.Err(), r.Err() == nil && back.Equal(m))
	}
}

// TestStatusMapWireRejectsHostileLines: a payload naming a line twice or
// out of order, carrying a state outside MESI, or shaped for no cores
// must not decode.
func TestStatusMapWireRejectsHostileLines(t *testing.T) {
	lines := func(cores int, rows ...[]uint64) []byte {
		w := new(wire.Writer)
		w.Int(cores)
		w.Uvarint(uint64(len(rows)))
		for _, row := range rows {
			w.Uvarint(row[0])
			for _, s := range row[1:] {
				w.Byte(byte(s))
			}
			w.Varint(-1)
		}
		return w.Bytes()
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"repeated line": {lines(2, []uint64{7, 1, 0}, []uint64{7, 0, 1}), "twice"},
		"out of order":  {lines(2, []uint64{9, 1, 0}, []uint64{7, 0, 1}), "out of order"},
		"state 4":       {lines(2, []uint64{7, 4, 0}), "not MESI"},
		"no cores":      {lines(0), "has 0 cores"},
	} {
		r := wire.NewReader(tc.data)
		if new(StatusMap).Decode(r); r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, r.Err(), tc.want)
		}
	}
}

// TestCacheWireRejectsHostileShapes: a geometry Validate rejects, one
// whose set count would overflow the line arithmetic, and a line count
// other than the geometry's must fail before a line is allocated.
func TestCacheWireRejectsHostileShapes(t *testing.T) {
	cache := func(size, assoc, lines int) []byte {
		w := new(wire.Writer)
		w.String("l2")
		w.Int(size)
		w.Int(assoc)
		w.Int(1)
		w.Uvarint(0)
		w.Uvarint(uint64(lines))
		return append(w.Bytes(), make([]byte, 3*64)...)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"zero ways":         {cache(4096, 0, 0), "must be positive"},
		"overflowing ways":  {cache(1<<62, 1<<58, 0), "not divisible"},
		"short line count":  {cache(4096, 2, 63), "line count 63, want 64"},
		"lines not present": {cache(1<<40, 2, 1<<34), "bytes left"},
	} {
		r := wire.NewReader(tc.data)
		if new(Cache).Decode(r); r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, r.Err(), tc.want)
		}
	}
}

// fuzzCanonical fuzzes a decoder: it must never panic, and whatever it
// accepts must re-encode to exactly the input, since the encoding is
// canonical.
func fuzzCanonical(f *testing.F, seed codec, fresh func() codec) {
	good := encode(seed)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, r := fresh(), wire.NewReader(data)
		if v.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(v); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}

func FuzzCacheWire(f *testing.F) {
	c := New(Config{Name: "l1", SizeBytes: 1 << 10, Assoc: 2, LatencyCycles: 1})
	c.Insert(12, coherence.Exclusive)
	c.Probe(12, false)
	fuzzCanonical(f, c, func() codec { return new(Cache) })
}

func FuzzMSHRWire(f *testing.F) {
	m := NewMSHRFile(4)
	m.Allocate(100, false, 3, 50)
	m.Allocate(100, true, 4, 51)
	fuzzCanonical(f, m, func() codec { return new(MSHRFile) })
}

func FuzzStatusMapWire(f *testing.F) {
	m := NewStatusMap(2)
	m.Apply(10, 0, coherence.Modified, 5)
	m.Apply(3, 1, coherence.Shared, 9)
	fuzzCanonical(f, m, func() codec { return new(StatusMap) })
}
