package syncctl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Wire serialization for run snapshots: lock and barrier tables
// flattened into key-sorted slices so the encoding is deterministic.

type lockWire struct {
	Addr       uint64
	Owner      int
	ReleasedAt int64
}

type barrierWire struct {
	ID         int64
	Arrived    int
	Generation uint64
	ReleasedAt int64
	Waiting    []int
}

type controllerWire struct {
	NumCores int
	Locks    []lockWire
	Barriers []barrierWire

	Acquires, Releases, Contended uint64
	BarrierEpisodes               uint64
}

// GobEncode implements gob.GobEncoder. The receiver must be quiescent.
func (c *Controller) GobEncode() ([]byte, error) {
	t := c.Counts()
	w := controllerWire{NumCores: len(c.cores), Acquires: t.Acquires, Releases: t.Releases,
		Contended: t.Contended, BarrierEpisodes: t.BarrierEpisodes}
	c.locks.each(func(a uint64, l *lockState) {
		w.Locks = append(w.Locks, lockWire{a, int(l.owner.Load()) - 1, l.released.Load() - 1})
	})
	c.barriers.each(func(id uint64, b *barrier) {
		bw := barrierWire{int64(id), int(b.arrived.Load()), b.gen.Load(), b.released.Load() - 1, nil}
		for core, s := range c.cores {
			if s.arrived && s.id == bw.ID && s.gen == bw.Generation {
				bw.Waiting = append(bw.Waiting, core)
			}
		}
		w.Barriers = append(w.Barriers, bw)
	})
	sort.Slice(w.Locks, func(i, j int) bool { return w.Locks[i].Addr < w.Locks[j].Addr })
	sort.Slice(w.Barriers, func(i, j int) bool { return w.Barriers[i].ID < w.Barriers[j].ID })
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder into a controller built for the
// machine's n cores. It leaves c as it was and fails when check does.
func (c *Controller) GobDecode(data []byte) error {
	var w controllerWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if err := w.check(len(c.cores)); err != nil {
		return fmt.Errorf("syncctl: %w", err)
	}
	c.Reset()
	for _, lw := range w.Locks {
		l := c.locks.find(lw.Addr, true)
		l.owner.Store(int64(lw.Owner) + 1)
		l.released.Store(lw.ReleasedAt + 1)
	}
	for _, bw := range w.Barriers {
		b := c.barriers.find(uint64(bw.ID), true)
		b.arrived.Store(int64(bw.Arrived))
		b.gen.Store(bw.Generation)
		b.released.Store(bw.ReleasedAt + 1)
		for _, core := range bw.Waiting {
			s := &c.cores[core]
			s.arrived, s.id, s.gen = true, bw.ID, bw.Generation
		}
	}
	if len(c.cores) > 0 {
		c.cores[0].Counts = Counts{w.Acquires, w.Releases, w.Contended, w.BarrierEpisodes}
	}
	return nil
}

// check reports why w cannot be restored into a controller of n cores:
// another core count, keys out of order or named twice, a lock owner
// outside [-1, n), or a barrier waiter outside [0, n), out of order,
// waiting twice, or not matching the barrier's arrival count.
func (w *controllerWire) check(n int) error {
	if w.NumCores != n {
		return fmt.Errorf("controller for %d cores, machine has %d", w.NumCores, n)
	}
	for i, l := range w.Locks {
		if i > 0 && l.Addr <= w.Locks[i-1].Addr || l.Owner < -1 || l.Owner >= n {
			return fmt.Errorf("lock %#x named twice, out of order, or held by core %d of %d", l.Addr, l.Owner, n)
		}
	}
	waiting := make([]bool, n)
	for i, b := range w.Barriers {
		for k, core := range b.Waiting {
			if core < 0 || core >= n || waiting[core] || k > 0 && core < b.Waiting[k-1] {
				return fmt.Errorf("barrier %d: waiter %d outside [0, %d), out of order, or waiting twice", b.ID, core, n)
			}
			waiting[core] = true
		}
		if i > 0 && b.ID <= w.Barriers[i-1].ID || b.Arrived != len(b.Waiting) || b.Arrived >= n {
			return fmt.Errorf("barrier %d named twice or out of order, or %d arrived with %d waiting of %d cores",
				b.ID, b.Arrived, len(b.Waiting), n)
		}
	}
	return nil
}
