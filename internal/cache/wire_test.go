package cache

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"os"
	"os/exec"
	"testing"

	"slacksim/internal/coherence"
)

func gobRoundTrip[T any](t *testing.T, in T, out T) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestCacheWireRoundTrip(t *testing.T) {
	c := New(Config{Name: "l1d", SizeBytes: 4 << 10, Assoc: 2, LatencyCycles: 1})
	for i := uint64(0); i < 200; i++ {
		c.Insert(i*7, coherence.State(1+i%3))
		c.Probe(i*7, i%2 == 0)
	}
	var got Cache
	gobRoundTrip(t, c, &got)
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
	gobRoundTrip(t, f, &got)
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
	gobRoundTrip(t, m, &got)
	if !m.Equal(&got) {
		t.Fatal("status map did not survive the wire round trip")
	}
	if got.MonitorTS(10) != 9 {
		t.Fatalf("monitor TS = %d, want 9", got.MonitorTS(10))
	}
}

// TestStatusMapGobEncodeIsStable pins the wire form: snapshots written
// before the map was stored flat must keep decoding, and the same
// contents must encode to the same bytes, lines sorted by address. want
// is the encoding of the earlier map-of-entries layout. gob numbers types
// per process in the order they are first encoded, so the bytes are
// compared in a child process that encodes nothing else first.
func TestStatusMapGobEncodeIsStable(t *testing.T) {
	const child = "SLACKSIM_STATUSMAP_WIRE_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStatusMapGobEncodeIsStable$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	const want = "327f0301010d7374617475734d61705769726501ff8000010201084e756d436f72657301040001054c696e657301ff8400000023ff83020101145b5d63616368652e6d6170456e7472795769726501ff840001ff8200003cff810301010c6d6170456e7472795769726501ff820001030104416464720106000106537461746573010a0001094d6f6e69746f725453010400000037ff800108010401020104030000000102000110010401010000010e0001fe440001040000000001180001fe900001040000030001500000"
	m := NewStatusMap(4)
	m.Apply(0x9000, 2, coherence.Modified, 40)
	m.Apply(0x10, 0, coherence.Shared, 5)
	m.Apply(0x10, 1, coherence.Shared, 7)
	m.Apply(0x4400, 3, coherence.Exclusive, 12)
	m.Apply(0x4400, 3, coherence.Invalid, 11)
	m.Apply(0x2, 0, coherence.Modified, 1)
	b, err := m.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encoding changed:\ngot  %s\nwant %s", got, want)
	}
	var back StatusMap
	if err := back.GobDecode(b); err != nil || !back.Equal(m) {
		t.Fatalf("decode: err %v, equal %v", err, err == nil && back.Equal(m))
	}
}

// TestStatusMapWireRejectsHostileLines: a payload naming a line twice or
// carrying a state outside MESI must not decode.
func TestStatusMapWireRejectsHostileLines(t *testing.T) {
	for name, lines := range map[string][]mapEntryWire{
		"repeated line": {
			{Addr: 7, States: []coherence.State{coherence.Shared, coherence.Invalid}},
			{Addr: 7, States: []coherence.State{coherence.Invalid, coherence.Shared}},
		},
		"state 4": {{Addr: 7, States: []coherence.State{coherence.Modified + 1, coherence.Invalid}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(statusMapWire{NumCores: 2, Lines: lines}); err != nil {
			t.Fatal(err)
		}
		if err := new(StatusMap).GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestMSHRWireIgnoresVersion: MSHR files encoded with the mutation
// counter the wire form used to carry still decode.
func TestMSHRWireIgnoresVersion(t *testing.T) {
	type versioned struct {
		Cap          int
		Entries      []MSHR
		Merges, Full uint64
		Version      uint64
	}
	var buf bytes.Buffer
	in := versioned{Cap: 4, Entries: []MSHR{{LineAddr: 9, Waiters: []int{1}}}, Merges: 2, Version: 17}
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var f MSHRFile
	if err := f.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f.Cap() != 4 || f.Len() != 1 || f.Lookup(9) == nil || f.Merges != 2 {
		t.Fatalf("decoded file = cap %d, %d entries, merges %d", f.Cap(), f.Len(), f.Merges)
	}
}
