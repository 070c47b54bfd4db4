// Package wire is the codec of exported run state, the engine payload of
// an SLKSNAP2 container. Each component appends its own fields to a
// Writer and reads them back, in the same order, from a Reader; no other
// code describes its layout.
//
// Integers are varints, zigzag for signed values; bools are one byte, 0
// or 1; a float64 is 8 little-endian bytes; a string is its length and
// its bytes. The encoding is canonical: the Reader rejects a varint
// longer than it needs to be, a bool byte other than 0 or 1, and bytes
// left over, so whatever it accepts re-encodes to the same bytes. A count
// is checked against a bound and against the bytes left before a decoder
// sizes anything by it.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer appends values to a byte slice.
type Writer struct{ buf []byte }

// Bytes returns what the Writer holds.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint, Varint, Int, Byte, Bool, Float and String append one value;
// the Reader's methods of the same names read it back.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) Varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *Writer) Int(v int)        { w.Varint(int64(v)) }
func (w *Writer) Byte(b byte)      { w.buf = append(w.buf, b) }
func (w *Writer) String(s string)  { w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...) }

func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

func (w *Writer) Float(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// Reader reads values from a byte slice. The first failure sticks and
// every later read returns zero, so a decoder reads one field per line
// and checks Err once.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a decoder's own failure, unless one is recorded already.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err, r.buf = fmt.Errorf(format, args...), nil
	}
}

// Done returns the first failure, or an error when bytes are left over.
func (r *Reader) Done() error {
	if len(r.buf) > 0 {
		r.Failf("wire: %d bytes left over", len(r.buf))
	}
	return r.err
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	switch {
	case n <= 0:
		r.Failf("wire: truncated or overlong varint")
	case n > 1 && r.buf[n-1] == 0:
		r.Failf("wire: varint of %d bytes is not minimal", n)
	default:
		r.buf = r.buf[n:]
		return v
	}
	return 0
}

func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *Reader) Int() int { return int(r.Varint()) }

func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Failf("wire: input ends before a byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Failf("wire: bool byte %d", b)
	}
	return b == 1
}

func (r *Reader) Float() float64 {
	if len(r.buf) < 8 {
		r.Failf("wire: input ends inside a float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return f
}

// Count reads the length of a list of what, whose elements take a byte
// or more each, and fails when it exceeds max or the bytes left.
func (r *Reader) Count(what string, max int) int {
	n := r.Uvarint()
	switch {
	case n > uint64(max):
		r.Failf("wire: %d %s, more than %d", n, what, max)
	case n > uint64(len(r.buf)):
		r.Failf("wire: %d %s, more than the %d bytes left", n, what, len(r.buf))
	default:
		return int(n)
	}
	return 0
}

// String reads a string of at most max bytes.
func (r *Reader) String(what string, max int) string {
	n := r.Count(what, max)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// List appends l's length, then each element by put.
func List[T any](w *Writer, l []T, put func(T)) {
	w.Uvarint(uint64(len(l)))
	for _, e := range l {
		put(e)
	}
}

// ReadList reads a list written by List, of at most max elements of what,
// each by get.
func ReadList[T any](r *Reader, what string, max int, get func() T) []T {
	l := make([]T, r.Count(what, max))
	for i := range l {
		l[i] = get()
	}
	return l
}
