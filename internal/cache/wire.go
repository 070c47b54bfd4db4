package cache

import (
	"slices"

	"slacksim/internal/coherence"
	"slacksim/internal/wire"
)

// Bounds on a decoded structure, beyond the bytes it must be backed by:
// a cache name, the ROB tags waiting on one MSHR, a status map's cores
// and its lines (every line of a 1 GiB memory image).
const maxName, maxWaiters, maxCores, maxLines = 64, 1 << 16, 1 << 16, 1 << 24

// Encode appends the cache for a run snapshot: its configuration, then
// every line, set-major then way order.
func (c *Cache) Encode(w *wire.Writer) {
	w.String(c.cfg.Name)
	w.Int(c.cfg.SizeBytes)
	w.Int(c.cfg.Assoc)
	w.Int(c.cfg.LatencyCycles)
	w.Uvarint(c.lruClk)
	w.Uvarint(uint64(len(c.flat)))
	for _, l := range c.flat {
		w.Uvarint(l.tag)
		w.Byte(byte(l.state))
		w.Uvarint(l.lru)
	}
	w.Uvarint(c.Hits)
	w.Uvarint(c.Misses)
	w.Uvarint(c.Evictions)
	w.Uvarint(c.Writebacks)
}

// Decode reads a cache written by Encode into c. A configuration that
// Validate rejects, or a line count other than the one it implies, fails
// the Reader before a line is allocated.
func (c *Cache) Decode(r *wire.Reader) {
	cfg := Config{Name: r.String("cache name bytes", maxName), SizeBytes: r.Int(), Assoc: r.Int(), LatencyCycles: r.Int()}
	lruClk := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if err := cfg.Validate(); err != nil {
		r.Failf("%w", err)
		return
	}
	want := cfg.Sets() * cfg.Assoc
	if n := r.Count("cache lines", want); r.Err() != nil || n != want {
		r.Failf("cache %s: line count %d, want %d", cfg.Name, n, want)
		return
	}
	*c = *New(cfg)
	c.lruClk = lruClk
	for i := range c.flat {
		c.flat[i] = line{tag: r.Uvarint(), state: coherence.State(r.Byte()), lru: r.Uvarint()}
	}
	c.Hits, c.Misses, c.Evictions, c.Writebacks = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
}

// Encode appends the MSHR file for a run snapshot.
func (f *MSHRFile) Encode(w *wire.Writer) {
	w.Int(f.cap)
	wire.List(w, f.entries, func(e MSHR) {
		w.Uvarint(e.LineAddr)
		w.Bool(e.Write)
		wire.List(w, e.Waiters, w.Int)
		w.Bool(e.Issued)
		w.Varint(e.IssueTS)
	})
	w.Uvarint(f.Merges)
	w.Uvarint(f.Full)
}

// Decode reads an MSHR file written by Encode into f. A capacity that is
// not positive, or more entries than it, fails the Reader.
func (f *MSHRFile) Decode(r *wire.Reader) {
	*f = MSHRFile{cap: r.Int()}
	if r.Err() == nil && f.cap <= 0 {
		r.Failf("cache: MSHR capacity %d must be positive", f.cap)
	}
	f.entries = wire.ReadList(r, "MSHRs", max(f.cap, 0), func() MSHR {
		return MSHR{LineAddr: r.Uvarint(), Write: r.Bool(),
			Waiters: wire.ReadList(r, "MSHR waiters", maxWaiters, r.Int), Issued: r.Bool(), IssueTS: r.Varint()}
	})
	f.Merges, f.Full = r.Uvarint(), r.Uvarint()
}

// Encode appends the status map for a run snapshot: its core count, then
// every line in address order with its per-core states and monitor.
func (m *StatusMap) Encode(w *wire.Writer) {
	w.Int(m.numCores)
	keys := slices.Clone(m.keys)
	slices.Sort(keys)
	wire.List(w, keys, func(la uint64) {
		w.Uvarint(la)
		for _, s := range m.lookup(la) {
			w.Byte(byte(s))
		}
		w.Varint(m.monitorTS[m.index[la]])
	})
}

// Decode reads a status map written by Encode into m. A core count that
// is not positive, lines out of address order or named twice, and a
// state outside MESI fail the Reader.
func (m *StatusMap) Decode(r *wire.Reader) {
	n := r.Int()
	if r.Err() == nil && (n <= 0 || n > maxCores) {
		r.Failf("cache: status map has %d cores", n)
		return
	}
	*m = *NewStatusMap(n)
	for i, lines := 0, r.Count("status map lines", maxLines); i < lines && r.Err() == nil; i++ {
		la := r.Uvarint()
		if i > 0 && la <= m.keys[i-1] {
			r.Failf("cache: status map names line %#x twice or out of order", la)
		}
		m.index[la] = int32(i)
		m.keys = append(m.keys, la)
		for c := 0; c < n; c++ {
			if s := coherence.State(r.Byte()); s <= coherence.Modified {
				m.states = append(m.states, s)
			} else {
				r.Failf("cache: status map line %#x core %d has state %d, not MESI", la, c, s)
			}
		}
		m.monitorTS = append(m.monitorTS, r.Varint())
	}
}
