package durable

import (
	"bytes"
	"encoding/json"
	"fmt"

	"slacksim/internal/spec"
)

// Snapshot container format: a portable, self-describing serialization
// of one in-flight run, produced at a checkpoint boundary and resumable
// on any node. Layout:
//
//	magic "SLKSNAP2" (8 bytes)
//	CRC-framed record: JSON header {format, key, spec}
//	CRC-framed record: opaque engine state (internal/engine's versioned
//	                   payload in the internal/wire codec)
//
// The header carries the full normalized spec, so a receiving node can
// rebuild the machine (workload, cores, scheme) without any side
// channel, and the spec digest, so stores and caches key the eventual
// result identically to an uninterrupted run.
//
// Snapshots are live hand-offs between nodes; nothing stores them, so a
// container of the gob-encoded SLKSNAP1 format is refused, not read.
var snapshotMagic, oldSnapshotMagic = []byte("SLKSNAP2"), []byte("SLKSNAP1")

// SnapshotFormat versions the container layout (the engine payload
// carries its own version).
const SnapshotFormat = 2

// Snapshot is a decoded run-snapshot container.
type Snapshot struct {
	// Format is the container format version.
	Format int `json:"format"`
	// Key is the spec's content address (spec.Key of Spec).
	Key string `json:"key"`
	// Spec is the normalized run spec of the snapshotted run.
	Spec spec.Spec `json:"spec"`
	// Engine is the engine's opaque serialized state.
	Engine []byte `json:"-"`
}

type snapshotHeader struct {
	Format int       `json:"format"`
	Key    string    `json:"key"`
	Spec   spec.Spec `json:"spec"`
}

// EncodeSnapshot wraps an engine state blob in the container format.
func EncodeSnapshot(sp spec.Spec, engine []byte) ([]byte, error) {
	sp = sp.Normalize()
	hdr, err := json.Marshal(snapshotHeader{Format: SnapshotFormat, Key: sp.Key(), Spec: sp})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	// The container size is known exactly; one allocation serves the whole
	// encode.
	buf.Grow(len(snapshotMagic) + 2*recHeaderLen + len(hdr) + len(engine))
	buf.Write(snapshotMagic)
	if _, err := appendRecord(&buf, hdr); err != nil {
		return nil, err
	}
	if _, err := appendRecord(&buf, engine); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot parses and checksums a snapshot container.
func DecodeSnapshot(blob []byte) (*Snapshot, error) {
	if bytes.HasPrefix(blob, oldSnapshotMagic) {
		return nil, fmt.Errorf("durable: SLKSNAP1 run snapshot (gob engine state) is no longer supported; this build reads SLKSNAP2")
	}
	if !bytes.HasPrefix(blob, snapshotMagic) {
		return nil, fmt.Errorf("durable: not a run snapshot (bad magic)")
	}
	var records [][]byte
	res, err := scanRecords(bytes.NewReader(blob[len(snapshotMagic):]), func(off int64, payload []byte) error {
		records = append(records, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.Torn || len(records) != 2 {
		return nil, fmt.Errorf("durable: run snapshot is truncated or corrupt (%d records, torn=%v)", len(records), res.Torn)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(records[0], &hdr); err != nil {
		return nil, fmt.Errorf("durable: run snapshot header: %w", err)
	}
	if hdr.Format != SnapshotFormat {
		return nil, fmt.Errorf("durable: run snapshot format %d is not supported (want %d)", hdr.Format, SnapshotFormat)
	}
	sp := hdr.Spec.Normalize()
	if key := sp.Key(); key != hdr.Key {
		return nil, fmt.Errorf("durable: run snapshot key mismatch: header %s, spec %s", hdr.Key, key)
	}
	return &Snapshot{Format: hdr.Format, Key: hdr.Key, Spec: sp, Engine: records[1]}, nil
}
