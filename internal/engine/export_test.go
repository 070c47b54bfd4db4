package engine

import (
	"bytes"
	"encoding/gob"

	"slacksim/internal/core"
	"slacksim/internal/event"
)

// RewriteCoreSnapshots decodes an exported run of a numCores-core machine,
// passes every core snapshot's wire form through edit, and encodes the run
// again around the edited snapshots. Tests use it to forge hostile resume
// payloads from real ones.
func RewriteCoreSnapshots(state []byte, numCores int, edit func(core int, wire []byte) ([]byte, error)) ([]byte, error) {
	st, err := decodeRunState(state, numCores)
	if err != nil {
		return nil, err
	}
	for i, s := range st.cores {
		wire, err := s.GobEncode()
		if err != nil {
			return nil, err
		}
		if wire, err = edit(i, wire); err != nil {
			return nil, err
		}
		st.cores[i] = new(core.Snapshot)
		if err := st.cores[i].GobDecode(wire); err != nil {
			return nil, err
		}
	}
	return st.encode()
}

// RunHeader and PendingWire name an exported run's header and its GQ
// entries' wire form for hostile-payload tests.
type (
	RunHeader   = engineHeader
	PendingWire = pendingWire
)

// RewriteRunState decodes an exported run of a numCores-core machine,
// passes its header and its per-core in- and out-queues through edit, and
// encodes the run again. Tests use it to forge hostile resume payloads
// from real ones.
func RewriteRunState(state []byte, numCores int, edit func(h *RunHeader, inQs [][]event.Msg, outQs [][]event.Request)) ([]byte, error) {
	st, err := decodeRunState(state, numCores)
	if err != nil {
		return nil, err
	}
	edit(&st.hdr, st.inQs, st.outs)
	return st.encode()
}

// rawWire is a component's wire form carried through the gob stream as
// is, so a test can splice in bytes the component's own decoder rejects.
type rawWire []byte

func (w rawWire) GobEncode() ([]byte, error) { return w, nil }

// RewriteComponent decodes an exported run of a numCores-core machine,
// passes the wire form of the named component ("uncore", "memory" or
// "sync") through edit, and encodes the run again with the edited bytes
// spliced in unchecked. Tests use it to forge hostile resume payloads
// from real ones.
func RewriteComponent(state []byte, numCores int, name string, edit func(wire []byte) ([]byte, error)) ([]byte, error) {
	st, err := decodeRunState(state, numCores)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(&st.hdr); err != nil {
		return nil, err
	}
	for _, c := range st.components() {
		v := c.v
		if c.name == name {
			wire, err := v.(gob.GobEncoder).GobEncode()
			if err != nil {
				return nil, err
			}
			if wire, err = edit(wire); err != nil {
				return nil, err
			}
			v = rawWire(wire)
		}
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	if st.hdr.HasCtrl {
		if err := enc.Encode(st.ctrl); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}
