package mem

// Snapshot returns a deep copy of the memory image.
func (m *Memory) Snapshot() *Memory {
	c := New()
	m.SnapshotInto(c)
	return c
}
