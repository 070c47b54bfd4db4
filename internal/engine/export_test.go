package engine

import "slacksim/internal/core"

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
