package cache

import (
	"slices"

	"slacksim/internal/coherence"
)

// StatusMap is the simulation manager's global record of which L1 caches
// hold each line and in what MESI state. It is the "cache status map" of
// the paper: the simulated-system state whose out-of-order updates are
// counted as map violations.
//
// Every entry carries a monitoring timestamp — the largest timestamp of
// any operation applied to it so far. Apply compares an incoming
// operation's timestamp against it and reports a violation when the
// operation arrives out of simulated-time order, exactly the detection
// mechanism of the paper's Section 3.
//
// Entries are stored flat. index maps a line address to a slot, and three
// append-only slices hold the slots: keys (the slot's line address),
// states (numCores per slot) and monitorTS. A line keeps its slot until a
// Restore or Reset drops it, so a checkpoint copy is three slice copies
// plus index updates past the longest prefix of keys the two maps share.
type StatusMap struct {
	numCores  int
	index     map[uint64]int32
	keys      []uint64
	states    []coherence.State
	monitorTS []int64
}

// NewStatusMap returns an empty map for a machine with numCores L1s.
func NewStatusMap(numCores int) *StatusMap {
	return &StatusMap{numCores: numCores, index: make(map[uint64]int32)}
}

// NumCores returns the number of tracked caches.
func (m *StatusMap) NumCores() int { return m.numCores }

// row returns slot i's per-core state vector.
func (m *StatusMap) row(i int32) []coherence.State {
	lo := int(i) * m.numCores
	return m.states[lo : lo+m.numCores]
}

// lookup returns lineAddr's state vector, or nil for an untouched line.
func (m *StatusMap) lookup(lineAddr uint64) []coherence.State {
	if i, ok := m.index[lineAddr]; ok {
		return m.row(i)
	}
	return nil
}

// slot returns lineAddr's slot, appending a fresh one (every core
// Invalid, monitor untouched) on first touch.
//
//slacksim:hotpath
func (m *StatusMap) slot(lineAddr uint64) int32 {
	if i, ok := m.index[lineAddr]; ok {
		return i
	}
	i := int32(len(m.keys))
	m.index[lineAddr] = i
	m.keys = append(m.keys, lineAddr)                                   //lint:allow hotpathalloc -- slot arrays grow only past the map's high-water line count, then reuse their backing
	m.states = append(m.states, make([]coherence.State, m.numCores)...) //lint:allow hotpathalloc -- see above; append of make(...)... extends in place without a temporary
	m.monitorTS = append(m.monitorTS, -1)                               //lint:allow hotpathalloc -- see above
	return i
}

// State returns core's recorded state for lineAddr.
func (m *StatusMap) State(lineAddr uint64, core int) coherence.State {
	if row := m.lookup(lineAddr); row != nil {
		return row[core]
	}
	return coherence.Invalid
}

// SharersOtherThan reports whether any cache except core holds the line.
func (m *StatusMap) SharersOtherThan(lineAddr uint64, core int) bool {
	for i, s := range m.lookup(lineAddr) {
		if i != core && s.Valid() {
			return true
		}
	}
	return false
}

// OwnerOtherThan returns the core holding the line in M or E (the cache
// that must supply or flush data), or -1.
func (m *StatusMap) OwnerOtherThan(lineAddr uint64, core int) int {
	for i, s := range m.lookup(lineAddr) {
		if i != core && s.CanWrite() {
			return i
		}
	}
	return -1
}

// Holders returns, in ascending core order, every core other than the
// requester holding a valid copy.
func (m *StatusMap) Holders(lineAddr uint64, except int) []int {
	return m.HoldersInto(nil, lineAddr, except)
}

// HoldersInto appends the holders to buf (reusing its backing array) and
// returns it; the manager's hot path passes a per-uncore scratch slice so
// servicing a request allocates nothing.
//
//slacksim:hotpath
func (m *StatusMap) HoldersInto(buf []int, lineAddr uint64, except int) []int {
	for i, s := range m.lookup(lineAddr) {
		if i != except && s.Valid() {
			buf = append(buf, i)
		}
	}
	return buf
}

// Apply records a state transition for (lineAddr, core) performed by an
// operation carrying timestamp ts, updating the entry's monitoring
// variable. It returns true when the operation is a map violation: its
// timestamp is retrograde (smaller than the largest already applied to
// this entry) *and* the transition involves ownership (the old or new
// state is Modified), so the reordering changes which write the global
// state reflects. Retrograde reorderings of read-sharing transitions
// commute and are not state inconsistencies — this is why the paper finds
// map violations an order of magnitude rarer than bus violations and
// negligible at small slack: conflicting ownership transfers of one line
// are separated by full coherence round trips, while the bus serializes
// every request in the machine.
//
//slacksim:hotpath
func (m *StatusMap) Apply(lineAddr uint64, core int, s coherence.State, ts int64) (violation bool) {
	i := m.slot(lineAddr)
	st := &m.states[int(i)*m.numCores+core]
	if ts < m.monitorTS[i] {
		violation = *st == coherence.Modified || s == coherence.Modified
	} else {
		m.monitorTS[i] = ts
	}
	*st = s
	return violation
}

// MonitorTS returns the entry's monitoring timestamp (-1 when untouched).
func (m *StatusMap) MonitorTS(lineAddr uint64) int64 {
	if i, ok := m.index[lineAddr]; ok {
		return m.monitorTS[i]
	}
	return -1
}

// CheckLegal verifies the MESI compatibility matrix for every line and
// returns the line addresses (sorted) that violate it. Used by protocol
// invariant tests; an eagerly-serviced slack simulation may transiently
// break it — that is precisely the simulated-system-state inaccuracy the
// paper studies — so production runs do not call this on the hot path.
func (m *StatusMap) CheckLegal() []uint64 {
	var bad []uint64
	for i, la := range m.keys {
		row := m.row(int32(i))
		ok := true
	outer:
		for a := range row {
			for b := a + 1; b < len(row); b++ {
				if !coherence.LegalPair(row[a], row[b]) {
					ok = false
					break outer
				}
			}
		}
		if !ok {
			bad = append(bad, la)
		}
	}
	slices.Sort(bad)
	return bad
}

// Lines returns the number of tracked lines.
func (m *StatusMap) Lines() int { return len(m.keys) }

// Snapshot deep-copies the map.
func (m *StatusMap) Snapshot() *StatusMap {
	n := NewStatusMap(m.numCores)
	m.SnapshotInto(n)
	return n
}

// SnapshotInto deep-copies the map into dst, reusing dst's index and slot
// arrays. Only the index entries past the longest prefix of keys the two
// maps share change. Between consecutive checkpoints the snapshot's keys
// are a prefix of the live map's (slots are append-only), so a capture
// indexes just the lines first touched since the last one, and a restore
// un-indexes them; maps with no common history, as when a Resume lands
// on a pooled machine, are handled the same way.
//
//slacksim:hotpath
func (m *StatusMap) SnapshotInto(dst *StatusMap) {
	p, n := 0, min(len(m.keys), len(dst.keys))
	for p < n && m.keys[p] == dst.keys[p] {
		p++
	}
	for _, la := range dst.keys[p:] {
		delete(dst.index, la)
	}
	for i, la := range m.keys[p:] {
		dst.index[la] = int32(p + i)
	}
	dst.numCores = m.numCores
	dst.keys = append(dst.keys[:0], m.keys...)
	dst.states = append(dst.states[:0], m.states...)
	dst.monitorTS = append(dst.monitorTS[:0], m.monitorTS...)
}

// Restore overwrites the map from a snapshot; see SnapshotInto.
//
//slacksim:hotpath
func (m *StatusMap) Restore(snap *StatusMap) {
	snap.SnapshotInto(m)
}

// Reset returns the map to its freshly-constructed state, keeping the
// index buckets and slot arrays for the next run. Used when a pooled
// machine is recycled.
func (m *StatusMap) Reset() {
	clear(m.index)
	m.keys = m.keys[:0]
	m.states = m.states[:0]
	m.monitorTS = m.monitorTS[:0]
}

// Equal reports whether two maps record identical state: the same lines,
// each with the same states and monitor. Slot order is not compared.
func (m *StatusMap) Equal(o *StatusMap) bool {
	if m.numCores != o.numCores || len(m.keys) != len(o.keys) {
		return false
	}
	for i, la := range m.keys {
		j, ok := o.index[la]
		if !ok || m.monitorTS[i] != o.monitorTS[j] || !slices.Equal(m.row(int32(i)), o.row(j)) {
			return false
		}
	}
	return true
}

// StateWords estimates live state size in 64-bit words for the checkpoint
// cost model.
func (m *StatusMap) StateWords() int {
	return len(m.keys) * (m.numCores/4 + 2)
}
