package violation

import (
	"bytes"
	"strings"
	"testing"

	"slacksim/internal/wire"
)

func encode(d *Detector) []byte {
	w := new(wire.Writer)
	d.Encode(w)
	return w.Bytes()
}

// tracking is a detector tracking 100- and 1000-cycle intervals, with
// violations recorded in several of them.
func tracking() *Detector {
	d := NewDetector()
	d.TrackIntervals(100, 1000)
	for _, ts := range []int64{950, 120, 5, 130, 2400} {
		d.Record(Bus, ts)
	}
	d.Record(Map, 77)
	return d
}

func TestDetectorWireRoundTrip(t *testing.T) {
	d := tracking()
	got, r := new(Detector), wire.NewReader(encode(d))
	if got.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	if got.Total() != d.Total() || !bytes.Equal(encode(got), encode(d)) {
		t.Fatal("detector did not survive the wire round trip")
	}
	if a, b := got.Intervals(3000), d.Intervals(3000); len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("interval reports %+v, want %+v", a, b)
	}
}

// TestDetectorCheckSnapshot: a snapshot must track the run's interval
// lengths (Record divides by them) and select its types, and each first
// violation must lie in its own interval at or before global time.
func TestDetectorCheckSnapshot(t *testing.T) {
	run := NewDetector()
	run.TrackIntervals(100, 1000)
	for name, tc := range map[string]struct {
		edit func(d *Detector)
		want string
	}{
		"as recorded":          {func(*Detector) {}, ""},
		"interval length 0":    {func(d *Detector) { d.intervals[0].Interval = 0 }, "interval lengths"},
		"one interval dropped": {func(d *Detector) { d.intervals = d.intervals[:1] }, "interval lengths"},
		"map not selected":     {func(d *Detector) { d.Select(Bus) }, "selected types"},
		"first in another":     {func(d *Detector) { d.intervals[0].firstTS[3] = 120 }, "recorded for interval 3"},
		"first past global":    {func(d *Detector) { d.intervals[1].firstTS[2] = 2900 }, "global time 2500"},
		"negative first":       {func(d *Detector) { d.intervals[0].firstTS[0] = -1 }, "first violation at -1"},
	} {
		d := tracking()
		tc.edit(d)
		err := run.CheckSnapshot(d, 2500)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// FuzzDetectorWire feeds arbitrary bytes to the detector's decoder. It
// must never panic, and whatever it accepts must re-encode to exactly
// the input.
func FuzzDetectorWire(f *testing.F) {
	good := encode(tracking())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, r := new(Detector), wire.NewReader(data)
		if d.Decode(r); r.Done() != nil {
			return
		}
		if enc := encode(d); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, enc)
		}
	})
}
