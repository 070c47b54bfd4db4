// Package recframe is the shared on-disk record framing used by every
// slacksim persistence format: the durable package's write-ahead logs,
// journals, and snapshot containers, and the memtrace trace files. A
// record is a fixed header of two little-endian uint32s — payload length
// and CRC-32C (Castagnoli) of the payload — followed by the payload. A
// process death can tear at most the record being appended; a scan stops
// at the first record that fails its length or checksum test and reports
// how many prefix bytes are good, so recovery can truncate the tail and
// every surviving byte is known-good.
package recframe

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Framing bounds. A length field beyond MaxRecordLen is treated as a torn
// tail, not an allocation order.
const (
	HeaderLen    = 8
	MaxRecordLen = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Append frames payload and appends it to w, returning the number of
// bytes written (header + payload).
func Append(w io.Writer, payload []byte) (int64, error) {
	if len(payload) > MaxRecordLen {
		return 0, fmt.Errorf("recframe: record of %d bytes exceeds the %d-byte bound", len(payload), MaxRecordLen)
	}
	var hdr [HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(HeaderLen + len(payload)), nil
}

// ScanResult describes one pass over a record log.
type ScanResult struct {
	// GoodBytes is the offset just past the last record that passed both
	// the length and checksum tests.
	GoodBytes int64
	// Torn reports whether the file continued past GoodBytes with bytes
	// that did not form a valid record (a torn or corrupt tail).
	Torn bool
}

// Scan reads records from r, invoking fn with each payload and the
// record's starting offset. It stops at EOF or at the first record that
// fails validation; the result says how many prefix bytes are good.
func Scan(r io.Reader, fn func(off int64, payload []byte) error) (ScanResult, error) {
	var off int64
	var hdr [HeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return ScanResult{GoodBytes: off}, nil
			}
			// io.ErrUnexpectedEOF: a torn header.
			return ScanResult{GoodBytes: off, Torn: true}, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordLen {
			return ScanResult{GoodBytes: off, Torn: true}, nil
		}
		payload, err := readPayload(r, int(n))
		if err != nil {
			return ScanResult{GoodBytes: off, Torn: true}, nil
		}
		if crc32.Checksum(payload, crcTable) != want {
			return ScanResult{GoodBytes: off, Torn: true}, nil
		}
		if err := fn(off, payload); err != nil {
			return ScanResult{GoodBytes: off}, err
		}
		off += int64(HeaderLen) + int64(n)
	}
}

// readChunk is the largest payload buffer Scan allocates before the bytes
// to fill it have arrived.
const readChunk = 64 << 10

// readPayload reads an n-byte payload. Up to readChunk bytes it reads
// into one buffer of exactly n bytes; past that the buffer doubles each
// time it fills, so a header that claims more bytes than follow it costs
// memory in proportion to the bytes that do follow, not to its claim.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*len(buf))), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
