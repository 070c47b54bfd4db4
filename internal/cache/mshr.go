package cache

import "fmt"

// MSHR is one miss-status holding register: an outstanding miss on a line
// with the set of instruction tags waiting for it. The L1s are lock-up
// free, so multiple misses can be outstanding and secondary misses to the
// same line merge into the primary's MSHR.
type MSHR struct {
	LineAddr uint64
	// Write records whether any merged request needs write permission.
	Write bool
	// Waiters are ROB tags of instructions blocked on this line.
	Waiters []int
	// Issued reports whether the bus request has been sent to the manager.
	Issued bool
	// IssueTS is the local time at which the request was (or will be) sent.
	IssueTS int64
}

// MSHRFile is a fixed-capacity set of MSHRs.
type MSHRFile struct {
	cap     int
	entries []MSHR

	// Merges counts secondary misses folded into an existing entry.
	Merges uint64
	// Full counts allocation attempts rejected because the file was full.
	Full uint64

	// scratch carries Release's returned waiter list so the entry's own
	// backing array stays parked in the file for reuse; see Release.
	scratch []int
}

// NewMSHRFile returns a file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: MSHR capacity %d must be positive", capacity))
	}
	return &MSHRFile{cap: capacity}
}

// Cap returns the file's capacity.
func (f *MSHRFile) Cap() int { return f.cap }

// Len returns the number of live entries.
func (f *MSHRFile) Len() int { return len(f.entries) }

// Lookup returns the entry for lineAddr, or nil.
func (f *MSHRFile) Lookup(lineAddr uint64) *MSHR {
	for i := range f.entries {
		if f.entries[i].LineAddr == lineAddr {
			return &f.entries[i]
		}
	}
	return nil
}

// Allocate records a miss on lineAddr for the instruction with tag waiting.
// It merges into an existing entry when possible. It returns the entry and
// whether this is a new (primary) miss; (nil,false) means the file is full
// and the requester must retry later.
func (f *MSHRFile) Allocate(lineAddr uint64, write bool, tag int, issueTS int64) (entry *MSHR, primary bool) {
	if e := f.Lookup(lineAddr); e != nil {
		e.Write = e.Write || write
		if tag >= 0 {
			e.Waiters = append(e.Waiters, tag)
		}
		f.Merges++
		return e, false
	}
	if len(f.entries) >= f.cap {
		f.Full++
		return nil, false
	}
	// A slot vacated by Release or Restore parks its waiter backing array
	// within the slice capacity; reviving it keeps steady-state miss
	// traffic allocation-free.
	n := len(f.entries)
	var w []int
	if n < cap(f.entries) {
		w = f.entries[:n+1][n].Waiters[:0]
	}
	f.entries = append(f.entries, MSHR{LineAddr: lineAddr, Write: write, IssueTS: issueTS, Waiters: w})
	e := &f.entries[len(f.entries)-1]
	if tag >= 0 {
		e.Waiters = append(e.Waiters, tag)
	}
	return e, true
}

// Release removes the entry for lineAddr and returns its waiters (nil if
// the entry does not exist). The returned slice is the file's scratch
// buffer: it is valid until the next Release and must not be retained —
// the entry's own backing array stays parked in the file so a later
// Allocate reuses it instead of allocating.
//
//slacksim:hotpath
func (f *MSHRFile) Release(lineAddr uint64) []int {
	for i := range f.entries {
		if f.entries[i].LineAddr == lineAddr {
			f.scratch = append(f.scratch[:0], f.entries[i].Waiters...)
			w := f.entries[i].Waiters[:0]
			n := len(f.entries)
			copy(f.entries[i:], f.entries[i+1:])
			// Park the released backing in the vacated tail slot; every
			// slot within capacity keeps a distinct backing array, so
			// reuse can never alias two entries' waiter lists.
			f.entries[n-1] = MSHR{Waiters: w}
			f.entries = f.entries[:n-1]
			return f.scratch
		}
	}
	return nil
}

// ForEach visits every live entry in allocation order.
func (f *MSHRFile) ForEach(fn func(*MSHR)) {
	for i := range f.entries {
		fn(&f.entries[i])
	}
}

// Snapshot deep-copies the file.
func (f *MSHRFile) Snapshot() *MSHRFile {
	n := &MSHRFile{cap: f.cap}
	n.Restore(f)
	return n
}

// SnapshotInto deep-copies the file's contents into dst, reusing dst's
// entry and waiter backings — the pooled-snapshot-graph variant of
// Snapshot.
//
//slacksim:hotpath
func (f *MSHRFile) SnapshotInto(dst *MSHRFile) {
	dst.Restore(f)
}

// Restore overwrites the file from a snapshot. Waiter lists are deep
// copies (aliasing snap's slices would corrupt the snapshot on replay),
// but the copies land in f's own parked backing arrays, so steady-state
// restores allocate nothing.
//
//slacksim:hotpath
func (f *MSHRFile) Restore(snap *MSHRFile) {
	f.cap = snap.cap
	f.Merges, f.Full = snap.Merges, snap.Full
	n := len(snap.entries)
	for len(f.entries) < n {
		if len(f.entries) < cap(f.entries) {
			// Revive a parked slot, keeping its waiter backing.
			f.entries = f.entries[:len(f.entries)+1]
		} else {
			// Grows only past the file's high-water entry count, then reused.
			f.entries = append(f.entries, MSHR{})
		}
	}
	for i := n; i < len(f.entries); i++ {
		f.entries[i] = MSHR{Waiters: f.entries[i].Waiters[:0]}
	}
	f.entries = f.entries[:n]
	for i := range snap.entries {
		se := &snap.entries[i]
		e := &f.entries[i]
		w := append(e.Waiters[:0], se.Waiters...)
		*e = *se
		e.Waiters = w
	}
}

// Reset returns the file to its freshly-constructed state, parking every
// entry's waiter backing for reuse. Used when a pooled machine is
// recycled.
func (f *MSHRFile) Reset() {
	for i := range f.entries {
		f.entries[i] = MSHR{Waiters: f.entries[i].Waiters[:0]}
	}
	f.entries = f.entries[:0]
	f.Merges, f.Full = 0, 0
}

// Equal reports whether two files hold identical entries and stats.
func (f *MSHRFile) Equal(o *MSHRFile) bool {
	if f.cap != o.cap || f.Merges != o.Merges || f.Full != o.Full ||
		len(f.entries) != len(o.entries) {
		return false
	}
	for i := range f.entries {
		a, b := &f.entries[i], &o.entries[i]
		if a.LineAddr != b.LineAddr || a.Write != b.Write ||
			a.Issued != b.Issued || a.IssueTS != b.IssueTS ||
			len(a.Waiters) != len(b.Waiters) {
			return false
		}
		for j := range a.Waiters {
			if a.Waiters[j] != b.Waiters[j] {
				return false
			}
		}
	}
	return true
}
