package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := new(Writer)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Int(-1)
	w.Byte(0xfe)
	w.Bool(true)
	w.Float(-0.5)
	w.String("l1d")
	List(w, []int64{3, -4}, w.Varint)
	r := NewReader(w.Bytes())
	if r.Uvarint() != math.MaxUint64 || r.Varint() != math.MinInt64 || r.Int() != -1 || r.Byte() != 0xfe ||
		!r.Bool() || r.Float() != -0.5 || r.String("name", 8) != "l1d" {
		t.Fatal("a value did not survive the round trip")
	}
	if l := ReadList(r, "values", 2, r.Varint); len(l) != 2 || l[0] != 3 || l[1] != -4 {
		t.Fatalf("list = %v", l)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: every non-canonical or unbacked input fails with a
// named error, and the failure sticks.
func TestReaderRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(r *Reader)
		want string
	}{
		"overlong varint":  {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "not minimal"},
		"65-bit varint":    {bytes.Repeat([]byte{0xff}, 10), func(r *Reader) { r.Uvarint() }, "overlong"},
		"truncated varint": {[]byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated"},
		"bool byte 2":      {[]byte{2}, func(r *Reader) { r.Bool() }, "bool byte 2"},
		"short float":      {[]byte{1, 2, 3}, func(r *Reader) { r.Float() }, "float"},
		"empty byte":       {nil, func(r *Reader) { r.Byte() }, "ends before a byte"},
		"count over bound": {[]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count("things", 8) }, "9 things, more than 8"},
		"count past end":   {[]byte{3, 0, 0}, func(r *Reader) { r.Count("things", 8) }, "more than the 2 bytes left"},
		"trailing bytes":   {[]byte{1, 1}, func(r *Reader) { r.Byte() }, "1 bytes left over"},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if err := r.Done(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
		if r.Uvarint() != 0 || r.Bool() || r.Count("things", 8) != 0 || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("%s: the first failure did not stick", name)
		}
	}
}
