package engine

import (
	"slacksim/internal/adaptive"
	"slacksim/internal/core"
	"slacksim/internal/event"
	"slacksim/internal/mem"
	"slacksim/internal/syncctl"
	"slacksim/internal/uncore"
	"slacksim/internal/violation"
	"slacksim/internal/wire"
)

// Forgery is a decoded exported run that a hostile-payload test edits
// before Forge encodes it again with the real codec.
type Forgery struct {
	Cores    []*core.Snapshot
	Uncore   *uncore.Snapshot
	Memory   *mem.Memory
	Sync     *syncctl.Controller
	Detector *violation.Detector
	InQs     [][]event.Msg
	OutQs    [][]event.Request
	// Controller is nil unless the run is adaptive.
	Controller *adaptive.Controller

	// The pacing scalars a forgery edits.
	Global, CoreCycles int64
	Arrival, RNGDraws  uint64
	P2PNext            []int64
	P2PPartner         []int
	P2PBlocked         []bool

	// Sections maps a component's name ("memory", "sync", ...) to bytes
	// spliced in unchecked in place of its encoding.
	Sections map[string][]byte

	run *detRun
}

// AppendGQ adds a request with arrival stamp arr to the forged GQ.
func (f *Forgery) AppendGQ(req event.Request, arr uint64) {
	f.run.gq = append(f.run.gq, pendingReq{req, arr})
}

// Forge decodes an exported run of a numCores-core machine, passes it
// through edit, and encodes it again.
func Forge(state []byte, numCores int, edit func(*Forgery)) ([]byte, error) {
	run := new(detRun)
	st, err := decodeRunState(state, numCores, run)
	if err != nil {
		return nil, err
	}
	f := &Forgery{Cores: st.cores, Uncore: st.unc, Memory: st.mem, Sync: st.sync, Detector: st.det,
		InQs: st.inQs, OutQs: st.outs, Controller: st.ctrl, Global: run.global, CoreCycles: run.meter.coreCycles,
		Arrival: run.arrival, RNGDraws: st.rngDraws, P2PNext: run.p2pNext, P2PPartner: run.p2pPartner,
		P2PBlocked: run.p2pBlocked, Sections: map[string][]byte{}, run: run}
	edit(f)
	st.cores, st.unc, st.mem, st.sync, st.det, st.inQs, st.outs = f.Cores, f.Uncore, f.Memory, f.Sync, f.Detector, f.InQs, f.OutQs
	st.ctrl = f.Controller
	run.global, run.meter.coreCycles, run.arrival, st.rngDraws = f.Global, f.CoreCycles, f.Arrival, f.RNGDraws
	run.p2pNext, run.p2pPartner, run.p2pBlocked = f.P2PNext, f.P2PPartner, f.P2PBlocked
	out := st.encode()
	if len(f.Sections) == 0 {
		return out, nil
	}
	// Re-encode section by section: the header is what precedes the
	// first component's encoding.
	cs := st.components()
	rest := 0
	for _, c := range cs {
		w := new(wire.Writer)
		c.encode(w)
		rest += len(w.Bytes())
	}
	out = out[:len(out)-rest]
	for _, c := range cs {
		w := new(wire.Writer)
		if c.encode(w); f.Sections[c.name] != nil {
			out = append(out, f.Sections[c.name]...)
		} else {
			out = append(out, w.Bytes()...)
		}
	}
	return out, nil
}

// Section returns a component's own encoding, for splicing into Sections.
func Section(encode func(*wire.Writer)) []byte {
	w := new(wire.Writer)
	encode(w)
	return w.Bytes()
}
