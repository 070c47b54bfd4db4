package syncctl

// Snapshot deep-copies the controller.
func (c *Controller) Snapshot() *Controller {
	n := New(len(c.cores))
	c.SnapshotInto(n)
	return n
}

// HeldBy returns the core owning the lock at addr, or -1.
func (c *Controller) HeldBy(addr uint64) int {
	if l := c.locks.find(addr, false); l != nil {
		return int(l.owner.Load()) - 1
	}
	return -1
}

// WaitingAt returns how many cores are parked at barrier id right now.
func (c *Controller) WaitingAt(id int64) int {
	if b := c.barriers.find(uint64(id), false); b != nil {
		return int(b.arrived.Load())
	}
	return 0
}

// count returns how many keys hold a table slot.
func (t *table[E]) count() (n int) {
	for i := range t.keys {
		if t.keys[i].Load() != 0 {
			n++
		}
	}
	return n
}
