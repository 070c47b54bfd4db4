package syncctl

import (
	"cmp"
	"slices"

	"slacksim/internal/wire"
)

// maxKeys bounds the locks and the barriers of a decoded controller,
// beyond the bytes they must be backed by.
const maxKeys = 1 << 20

// sorted lists t's keys, in the given order.
func sorted[E any](t *table[E], order func(a, b uint64) int) []uint64 {
	var keys []uint64
	t.each(func(k uint64, _ *E) { keys = append(keys, k) })
	slices.SortFunc(keys, order)
	return keys
}

// Encode appends the controller for a run snapshot: its core count, the
// locks in address order, the barriers in ID order with the cores waiting
// at each, then every core's counts. The receiver must be quiescent.
func (c *Controller) Encode(w *wire.Writer) {
	w.Int(len(c.cores))
	wire.List(w, sorted(&c.locks, cmp.Compare[uint64]), func(addr uint64) {
		l := c.locks.find(addr, false)
		w.Uvarint(addr)
		w.Varint(l.owner.Load())
		w.Varint(l.released.Load())
	})
	wire.List(w, sorted(&c.barriers, func(a, b uint64) int { return cmp.Compare(int64(a), int64(b)) }), func(key uint64) {
		b, id := c.barriers.find(key, false), int64(key)
		w.Varint(id)
		w.Varint(b.arrived.Load())
		w.Uvarint(b.gen.Load())
		w.Varint(b.released.Load())
		var waiting []int
		for core, s := range c.cores {
			if s.arrived && s.id == id && s.gen == b.gen.Load() {
				waiting = append(waiting, core)
			}
		}
		wire.List(w, waiting, w.Int)
	})
	for _, s := range c.cores {
		for _, n := range [...]uint64{s.Acquires, s.Releases, s.Contended, s.BarrierEpisodes} {
			w.Uvarint(n)
		}
	}
}

// Decode reads a controller written by Encode into c, a controller built
// for the machine's n cores, which it resets first. Another core count,
// keys out of order or named twice, a lock owner outside [-1, n), or a
// barrier waiter outside [0, n), out of order, waiting twice, or not
// matching the barrier's arrival count fails the Reader.
func (c *Controller) Decode(r *wire.Reader) {
	n := len(c.cores)
	c.Reset()
	if got := r.Int(); r.Err() == nil && got != n {
		r.Failf("syncctl: controller for %d cores, machine has %d", got, n)
	}
	for i, nl, prev := 0, r.Count("locks", maxKeys), uint64(0); i < nl && r.Err() == nil; i++ {
		addr, owner, released := r.Uvarint(), r.Varint(), r.Varint()
		if i > 0 && addr <= prev || owner < 0 || owner > int64(n) {
			r.Failf("syncctl: lock %#x named twice, out of order, or held by core %d of %d", addr, owner-1, n)
		}
		l := c.locks.find(addr, true)
		l.owner.Store(owner)
		l.released.Store(released)
		prev = addr
	}
	for i, nb, prev := 0, r.Count("barriers", maxKeys), int64(0); i < nb && r.Err() == nil; i++ {
		id, arrived, gen, released := r.Varint(), r.Varint(), r.Uvarint(), r.Varint()
		waiting := wire.ReadList(r, "barrier waiters", n, r.Int)
		for k, core := range waiting {
			if core < 0 || core >= n || c.cores[core].arrived || k > 0 && core < waiting[k-1] {
				r.Failf("syncctl: barrier %d: waiter %d outside [0, %d), out of order, or waiting twice", id, core, n)
				return
			}
			c.cores[core].arrived, c.cores[core].id, c.cores[core].gen = true, id, gen
		}
		if i > 0 && id <= prev || arrived != int64(len(waiting)) || arrived >= int64(n) {
			r.Failf("syncctl: barrier %d named twice or out of order, or %d arrived with %d waiting of %d cores",
				id, arrived, len(waiting), n)
		}
		b := c.barriers.find(uint64(id), true)
		b.arrived.Store(arrived)
		b.gen.Store(gen)
		b.released.Store(released)
		prev = id
	}
	for i := range c.cores {
		s := &c.cores[i]
		s.Acquires, s.Releases, s.Contended, s.BarrierEpisodes = r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	}
}
