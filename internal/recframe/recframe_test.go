package recframe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// frame returns the framed form of each payload, concatenated.
func frame(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range payloads {
		n, err := Append(&buf, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(HeaderLen+len(p)) {
			t.Fatalf("Append wrote %d bytes for a %d-byte payload", n, len(p))
		}
	}
	return buf.Bytes()
}

// scanAll scans data and returns every record's offset and payload.
func scanAll(t testing.TB, data []byte) (ScanResult, []int64, [][]byte) {
	t.Helper()
	var offs []int64
	var payloads [][]byte
	res, err := Scan(bytes.NewReader(data), func(off int64, p []byte) error {
		offs = append(offs, off)
		payloads = append(payloads, bytes.Clone(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, offs, payloads
}

// testPayloads holds an empty record, small ones, and one past readChunk
// so the growing read runs.
func testPayloads() [][]byte {
	big := make([]byte, 3*readChunk+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return [][]byte{[]byte("first"), {}, big, []byte("last record")}
}

func TestAppendScanRoundTrip(t *testing.T) {
	want := testPayloads()
	data := frame(t, want...)
	res, offs, got := scanAll(t, data)
	if res != (ScanResult{GoodBytes: int64(len(data))}) {
		t.Fatalf("result %+v, want all %d bytes good and no tear", res, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	var off int64
	for i := range want {
		if offs[i] != off || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: offset %d and %d bytes, want offset %d and %d bytes",
				i, offs[i], len(got[i]), off, len(want[i]))
		}
		off += int64(HeaderLen + len(want[i]))
	}
}

// TestScanStopsAtTornOrCorruptTail cuts and corrupts a log after its
// first two records: every case keeps exactly those two.
func TestScanStopsAtTornOrCorruptTail(t *testing.T) {
	good := frame(t, []byte("one"), []byte("two"))
	third := frame(t, []byte("the third record"))
	badCRC := bytes.Clone(third)
	badCRC[len(badCRC)-1] ^= 1
	badLen := bytes.Clone(third)
	binary.LittleEndian.PutUint32(badLen, MaxRecordLen+1)
	for name, tail := range map[string][]byte{
		"torn header":       third[:HeaderLen-3],
		"torn payload":      third[:HeaderLen+5],
		"bad CRC":           badCRC,
		"length past bound": badLen,
	} {
		t.Run(name, func(t *testing.T) {
			res, _, got := scanAll(t, append(bytes.Clone(good), tail...))
			if res != (ScanResult{GoodBytes: int64(len(good)), Torn: true}) || len(got) != 2 {
				t.Fatalf("result %+v with %d records, want %d good bytes, torn, 2 records", res, len(got), len(good))
			}
		})
	}
}

func TestScanPassesCallbackError(t *testing.T) {
	data := frame(t, []byte("one"), []byte("two"))
	stop := errors.New("stop")
	res, err := Scan(bytes.NewReader(data), func(off int64, _ []byte) error {
		if off > 0 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || res.GoodBytes != HeaderLen+3 || res.Torn {
		t.Fatalf("result %+v, err %v; want the second record's offset and the callback's error", res, err)
	}
}

func TestMaxRecordLen(t *testing.T) {
	// A buffer this large that nothing writes to stays untouched virtual
	// memory.
	if _, err := Append(new(bytes.Buffer), make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("Append accepted a record past MaxRecordLen")
	}
}

// TestScanAllocatesWhatIsPresent: a header that claims a MaxRecordLen
// payload, followed by a few bytes, must not make Scan allocate the
// claimed size before the read fails.
func TestScanAllocatesWhatIsPresent(t *testing.T) {
	data := make([]byte, HeaderLen+100)
	binary.LittleEndian.PutUint32(data, MaxRecordLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _, _ := scanAll(t, data)
	runtime.ReadMemStats(&after)
	if res != (ScanResult{Torn: true}) {
		t.Fatalf("result %+v, want no good bytes and a tear", res)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4*readChunk {
		t.Fatalf("Scan allocated %d bytes for a %d-byte log", n, len(data))
	}
}

// FuzzScan: whatever the bytes, GoodBytes is a record boundary within
// them, and the records Scan reports before it are those bytes exactly —
// framing the payloads again rebuilds the good prefix, offset for
// offset. Torn says whether bytes follow it.
func FuzzScan(f *testing.F) {
	for _, p := range testPayloads() {
		f.Add(frame(f, p))
	}
	good := frame(f, []byte("one"), []byte("two"))
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Fuzz(func(t *testing.T, data []byte) {
		res, offs, payloads := scanAll(t, data)
		if res.GoodBytes < 0 || res.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d outside [0, %d]", res.GoodBytes, len(data))
		}
		if res.Torn != (res.GoodBytes < int64(len(data))) {
			t.Fatalf("Torn %v with %d of %d bytes good", res.Torn, res.GoodBytes, len(data))
		}
		var again bytes.Buffer
		for i, p := range payloads {
			if offs[i] != int64(again.Len()) {
				t.Fatalf("record %d at offset %d, want %d", i, offs[i], again.Len())
			}
			if _, err := Append(&again, p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again.Bytes(), data[:res.GoodBytes]) {
			t.Fatalf("reframed records differ from the %d good bytes", res.GoodBytes)
		}
	})
}
