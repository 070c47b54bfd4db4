package cache

import (
	"testing"

	"slacksim/internal/coherence"
)

func TestStatusMapApplyAndState(t *testing.T) {
	m := NewStatusMap(4)
	if m.State(0x10, 0) != coherence.Invalid {
		t.Fatal("fresh map not Invalid")
	}
	if v := m.Apply(0x10, 0, coherence.Modified, 5); v {
		t.Fatal("first apply flagged violation")
	}
	if m.State(0x10, 0) != coherence.Modified {
		t.Fatal("state not recorded")
	}
	if m.MonitorTS(0x10) != 5 {
		t.Fatalf("monitor = %d, want 5", m.MonitorTS(0x10))
	}
}

func TestStatusMapRetrogradeViolation(t *testing.T) {
	m := NewStatusMap(2)
	m.Apply(0x10, 0, coherence.Shared, 10)
	if v := m.Apply(0x10, 1, coherence.Shared, 10); v {
		t.Error("equal timestamp must not violate")
	}
	// A retrograde ownership transfer is a map violation.
	if v := m.Apply(0x10, 1, coherence.Modified, 9); !v {
		t.Error("retrograde ownership transition not flagged")
	}
	// A violation does not update the monitor.
	if m.MonitorTS(0x10) != 10 {
		t.Errorf("monitor moved backwards to %d", m.MonitorTS(0x10))
	}
	// The state change is still applied (the simulation proceeds).
	if m.State(0x10, 1) != coherence.Modified {
		t.Error("retrograde op's state change lost")
	}
	// Losing ownership retrograde also flags (old state Modified).
	if v := m.Apply(0x10, 1, coherence.Invalid, 8); !v {
		t.Error("retrograde ownership loss not flagged")
	}
}

func TestStatusMapRetrogradeReadsCommute(t *testing.T) {
	m := NewStatusMap(2)
	m.Apply(0x20, 0, coherence.Shared, 10)
	// A retrograde read-sharing transition commutes with the recorded
	// state and is not a map violation (the paper's map violations need a
	// real state inconsistency, which keeps them an order of magnitude
	// rarer than bus violations).
	if v := m.Apply(0x20, 1, coherence.Shared, 5); v {
		t.Error("retrograde read-share flagged as map violation")
	}
	if v := m.Apply(0x20, 1, coherence.Invalid, 4); v {
		t.Error("retrograde share-drop flagged as map violation")
	}
}

func TestStatusMapHoldersAndOwner(t *testing.T) {
	m := NewStatusMap(4)
	m.Apply(0x20, 1, coherence.Shared, 1)
	m.Apply(0x20, 3, coherence.Modified, 2)
	if !m.SharersOtherThan(0x20, 0) {
		t.Error("sharers not seen")
	}
	if m.SharersOtherThan(0x99, 0) {
		t.Error("phantom sharers")
	}
	if got := m.OwnerOtherThan(0x20, 0); got != 3 {
		t.Errorf("owner = %d, want 3", got)
	}
	if got := m.OwnerOtherThan(0x20, 3); got != -1 {
		t.Errorf("owner excluding self = %d, want -1", got)
	}
	h := m.Holders(0x20, 3)
	if len(h) != 1 || h[0] != 1 {
		t.Errorf("holders = %v, want [1]", h)
	}
	if h := m.Holders(0x77, 0); h != nil {
		t.Errorf("holders of untracked line = %v", h)
	}
}

func TestStatusMapCheckLegal(t *testing.T) {
	m := NewStatusMap(2)
	m.Apply(0x1, 0, coherence.Shared, 1)
	m.Apply(0x1, 1, coherence.Shared, 2)
	if bad := m.CheckLegal(); len(bad) != 0 {
		t.Errorf("legal map flagged: %v", bad)
	}
	m.Apply(0x2, 0, coherence.Modified, 3)
	m.Apply(0x2, 1, coherence.Shared, 4)
	bad := m.CheckLegal()
	if len(bad) != 1 || bad[0] != 0x2 {
		t.Errorf("illegal pair not found: %v", bad)
	}
}

func TestStatusMapSnapshotRestore(t *testing.T) {
	m := NewStatusMap(2)
	m.Apply(0x1, 0, coherence.Modified, 9)
	snap := m.Snapshot()
	m.Apply(0x1, 0, coherence.Invalid, 10)
	m.Apply(0x5, 1, coherence.Shared, 11)
	m.Restore(snap)
	if m.State(0x1, 0) != coherence.Modified || m.MonitorTS(0x1) != 9 {
		t.Error("restore lost entry")
	}
	if m.Lines() != 1 {
		t.Errorf("restore kept %d lines, want 1", m.Lines())
	}
	// Deep copy: mutating restored map must not touch the snapshot.
	m.Apply(0x1, 1, coherence.Shared, 12)
	if snap.State(0x1, 1) != coherence.Invalid {
		t.Error("snapshot aliases live entries")
	}
}

func TestStatusMapStateWords(t *testing.T) {
	m := NewStatusMap(8)
	if m.StateWords() != 0 {
		t.Error("empty map has state words")
	}
	m.Apply(0x1, 0, coherence.Shared, 1)
	if m.StateWords() <= 0 {
		t.Error("non-empty map reports no state")
	}
}

// TestStatusMapRollbackDropsLaterLines rolls the map back, several times
// over, across lines first touched after the checkpoint: the line count,
// the state words and every lookup must return to their checkpoint values,
// and a dropped line must come back as a fresh one when touched again.
func TestStatusMapRollbackDropsLaterLines(t *testing.T) {
	m := NewStatusMap(4)
	m.Apply(0x100, 0, coherence.Modified, 3)
	m.Apply(0x200, 1, coherence.Shared, 4)
	snap := NewStatusMap(4)
	for round := int64(0); round < 3; round++ {
		m.SnapshotInto(snap)
		lines, words := m.Lines(), m.StateWords()
		late := []uint64{0x300 + uint64(round), 0x500 + uint64(round)}
		m.Apply(0x100, 0, coherence.Invalid, 10+round)
		m.Apply(late[0], 2, coherence.Modified, 20)
		m.Apply(late[1], 3, coherence.Shared, 21)
		m.Restore(snap)
		if m.Lines() != lines || m.StateWords() != words {
			t.Fatalf("round %d: %d lines / %d words after rollback, want %d / %d",
				round, m.Lines(), m.StateWords(), lines, words)
		}
		if !m.Equal(snap) {
			t.Fatalf("round %d: rolled-back map differs from its checkpoint", round)
		}
		if m.State(0x100, 0) != coherence.Modified || m.MonitorTS(0x100) != 3 {
			t.Fatalf("round %d: line 0x100 = %v @%d, want M @3", round, m.State(0x100, 0), m.MonitorTS(0x100))
		}
		for _, la := range late {
			if m.State(la, 2) != coherence.Invalid || m.State(la, 3) != coherence.Invalid ||
				m.MonitorTS(la) != -1 || m.SharersOtherThan(la, 0) ||
				m.OwnerOtherThan(la, 0) != -1 || m.Holders(la, 0) != nil {
				t.Fatalf("round %d: line %#x still visible after rollback", round, la)
			}
		}
		// Grow the checkpointed state for the next round: the new line
		// must start untouched (an early timestamp is no violation).
		if m.Apply(late[1], 0, coherence.Modified, 1) {
			t.Fatalf("round %d: a dropped line kept its monitor", round)
		}
	}
}

// TestStatusMapRestoreUnrelatedSnapshot restores a map already in use
// from a snapshot whose keys are not a prefix of its own — the same lines
// in other slots, plus lines the live map never saw — as a Resume onto a
// recycled machine does.
func TestStatusMapRestoreUnrelatedSnapshot(t *testing.T) {
	m := NewStatusMap(2)
	m.Apply(0x1, 0, coherence.Modified, 1)
	m.Apply(0x2, 1, coherence.Shared, 2)
	m.Apply(0x3, 0, coherence.Exclusive, 3)
	o := NewStatusMap(2)
	o.Apply(0x3, 1, coherence.Shared, 30)
	o.Apply(0x9, 0, coherence.Modified, 90)
	o.Apply(0x1, 1, coherence.Exclusive, 10)
	m.Restore(o)
	if !m.Equal(o) || m.Lines() != 3 {
		t.Fatalf("restored map differs from the snapshot (%d lines)", m.Lines())
	}
	want := map[uint64][2]coherence.State{
		0x1: {coherence.Invalid, coherence.Exclusive},
		0x2: {coherence.Invalid, coherence.Invalid},
		0x3: {coherence.Invalid, coherence.Shared},
		0x9: {coherence.Modified, coherence.Invalid},
	}
	for la, st := range want {
		if m.State(la, 0) != st[0] || m.State(la, 1) != st[1] || m.MonitorTS(la) != o.MonitorTS(la) {
			t.Errorf("line %#x = [%v %v] @%d, want %v @%d",
				la, m.State(la, 0), m.State(la, 1), m.MonitorTS(la), st, o.MonitorTS(la))
		}
	}
	// The copy is deep, and the restored map keeps working.
	m.Apply(0x9, 1, coherence.Shared, 91)
	m.Apply(0x2, 0, coherence.Shared, 92)
	if o.State(0x9, 1) != coherence.Invalid || o.Lines() != 3 {
		t.Error("restored map aliases its snapshot")
	}
	if m.State(0x2, 0) != coherence.Shared || m.Lines() != 4 {
		t.Errorf("new line after restore: state %v, %d lines", m.State(0x2, 0), m.Lines())
	}
}
