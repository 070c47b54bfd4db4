package syncctl

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"slacksim/internal/wire"
)

func TestLockBasics(t *testing.T) {
	c := New(4)
	if !c.TryLock(0x10, 0, 1) {
		t.Fatal("free lock refused")
	}
	if c.TryLock(0x10, 1, 2) {
		t.Fatal("held lock granted to another core")
	}
	if got := c.HeldBy(0x10); got != 0 {
		t.Fatalf("HeldBy = %d, want 0", got)
	}
	c.Unlock(0x10, 0, 3)
	if got := c.HeldBy(0x10); got != -1 {
		t.Fatalf("HeldBy after unlock = %d, want -1", got)
	}
	if !c.TryLock(0x10, 1, 4) {
		t.Fatal("released lock refused")
	}
	if n := c.Counts(); n.Acquires != 2 || n.Releases != 1 || n.Contended != 1 {
		t.Errorf("stats %d/%d/%d", n.Acquires, n.Releases, n.Contended)
	}
	if c.LocksHeld() != 1 {
		t.Errorf("LocksHeld = %d", c.LocksHeld())
	}
}

func TestLockReleaseVisibleNextCycle(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 0, 5)
	c.Unlock(0x10, 0, 9)
	// Same simulated cycle: the release has not propagated.
	if c.TryLock(0x10, 1, 9) {
		t.Fatal("same-cycle re-acquire succeeded")
	}
	if !c.TryLock(0x10, 1, 10) {
		t.Fatal("next-cycle acquire failed")
	}
}

func TestReacquirePanics(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("re-acquire did not panic")
		}
	}()
	c.TryLock(0x10, 0, 2)
}

func TestUnlockNotOwnerPanics(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("foreign unlock did not panic")
		}
	}()
	c.Unlock(0x10, 1, 2)
}

func TestUnlockUnheldPanics(t *testing.T) {
	c := New(2)
	defer func() {
		if recover() == nil {
			t.Error("unheld unlock did not panic")
		}
	}()
	c.Unlock(0x10, 0, 1)
}

func TestBarrierGenerations(t *testing.T) {
	c := New(3)
	g0 := c.BarrierArrive(0, 0, 10)
	if c.BarrierPassed(0, g0, 11) {
		t.Fatal("barrier passed with 1/3 arrivals")
	}
	if got := c.WaitingAt(0); got != 1 {
		t.Fatalf("WaitingAt = %d", got)
	}
	g1 := c.BarrierArrive(0, 1, 12)
	if g1 != g0 {
		t.Fatalf("same generation expected, got %d vs %d", g1, g0)
	}
	c.BarrierArrive(0, 2, 20) // releases at t=20
	if c.BarrierPassed(0, g0, 20) {
		t.Fatal("release visible in its own cycle")
	}
	if !c.BarrierPassed(0, g0, 21) {
		t.Fatal("barrier not released after all arrived")
	}
	if n := c.Counts().BarrierEpisodes; n != 1 {
		t.Errorf("episodes = %d", n)
	}
	// Next generation starts fresh.
	g2 := c.BarrierArrive(0, 0, 30)
	if g2 != g0+1 {
		t.Errorf("next generation = %d, want %d", g2, g0+1)
	}
	if c.BarrierPassed(0, g2, 31) {
		t.Error("new generation passed with 1/3")
	}
	// Complete generation 1; a generation two behind then passes
	// regardless of the asker's clock.
	c.BarrierArrive(0, 1, 32)
	c.BarrierArrive(0, 2, 33)
	if !c.BarrierPassed(0, g0, 0) {
		t.Error("long-past generation must pass")
	}
}

func TestBarrierDoubleArrivePanics(t *testing.T) {
	c := New(3)
	c.BarrierArrive(5, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("double arrival did not panic")
		}
	}()
	c.BarrierArrive(5, 0, 2)
}

func TestIndependentBarriers(t *testing.T) {
	c := New(1)
	gA := c.BarrierArrive(1, 0, 7) // single-core barrier releases at once
	if !c.BarrierPassed(1, gA, 8) {
		t.Fatal("1-core barrier not released next cycle")
	}
	if c.BarrierPassed(2, 0, 100) {
		t.Fatal("untouched barrier reports passed")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := New(2)
	c.TryLock(0x10, 1, 1)
	c.BarrierArrive(0, 0, 2)
	snap := c.Snapshot()
	c.Unlock(0x10, 1, 3)
	c.BarrierArrive(0, 1, 4) // releases generation 0
	c.Restore(snap)
	if c.HeldBy(0x10) != 1 {
		t.Error("restore lost lock owner")
	}
	if c.BarrierPassed(0, 0, 100) {
		t.Error("restore lost barrier wait state")
	}
	if c.WaitingAt(0) != 1 {
		t.Errorf("restored arrivals = %d, want 1", c.WaitingAt(0))
	}
	// Deep copy: the snapshot must not see post-restore changes.
	c.BarrierArrive(0, 1, 5)
	if snap.BarrierPassed(0, 0, 100) {
		t.Error("snapshot aliases live barrier")
	}
}

// TestConcurrentLocking races cores for a few lock words, one of them in
// the sparse map. At most one core may be inside a lock at a time (a
// plain counter guarded only by the lock would race under -race
// otherwise), and the summed per-core counters must match what the
// cores saw: one acquire and one release per granted attempt, one
// contended count per refused one.
func TestConcurrentLocking(t *testing.T) {
	const cores, tries = 8, 400
	addrs := []uint64{0xA0, 0xE0, ^uint64(0)}
	c := New(cores)
	var inside [3]atomic.Int32
	var guarded [3]int
	var granted atomic.Uint64
	var wg sync.WaitGroup
	for core := 0; core < cores; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			for i := 0; i < tries; i++ {
				k := (core + i) % len(addrs)
				now := int64(core*1000 + i*2)
				if !c.TryLock(addrs[k], core, now) {
					continue
				}
				granted.Add(1)
				if n := inside[k].Add(1); n != 1 {
					t.Errorf("%d cores inside lock %#x", n, addrs[k])
				}
				guarded[k]++
				inside[k].Add(-1)
				c.Unlock(addrs[k], core, now)
			}
		}(core)
	}
	wg.Wait()
	if c.LocksHeld() != 0 {
		t.Errorf("locks leaked: %d", c.LocksHeld())
	}
	n, g := c.Counts(), granted.Load()
	if n.Acquires != g || n.Releases != g || n.Acquires+n.Contended != cores*tries {
		t.Errorf("counts %+v, want %d acquires and releases of %d attempts", n, g, cores*tries)
	}
	if sum := uint64(guarded[0] + guarded[1] + guarded[2]); sum != g {
		t.Errorf("guarded counters sum to %d, want %d", sum, g)
	}
}

// TestConcurrentBarrierGenerations has every core arrive and poll across
// many generations of one or two barriers, used in turn. No core may pass
// a generation before every core arrived in it, each arrival must report
// the generation count so far, and the episodes must add up. The
// two-core row reuses one barrier with tight polling, so a release that
// moved the generation on before resetting the arrival count would lose
// a fast waiter's next arrival.
func TestConcurrentBarrierGenerations(t *testing.T) {
	for _, tc := range []struct{ cores, gens, barriers int }{{6, 300, 2}, {2, 20000, 1}} {
		c := New(tc.cores)
		arrivals := [2][]atomic.Int32{make([]atomic.Int32, tc.gens), make([]atomic.Int32, tc.gens)}
		var wg sync.WaitGroup
		for core := 0; core < tc.cores; core++ {
			wg.Add(1)
			go func(core int) {
				defer wg.Done()
				now := int64(0)
				for k := 0; k < tc.gens; k++ {
					id, g := int64(k%tc.barriers), k/tc.barriers
					arrivals[id][g].Add(1)
					gen := c.BarrierArrive(id, core, now)
					if gen != uint64(g) {
						t.Errorf("%d cores: core %d arrival %d at barrier %d got generation %d", tc.cores, core, k, id, gen)
						return
					}
					for spins := 0; !c.BarrierPassed(id, gen, now); spins++ {
						if spins > 1<<24 {
							t.Errorf("%d cores: core %d never passed barrier %d generation %d", tc.cores, core, id, gen)
							return
						}
						if now++; spins%64 == 63 {
							runtime.Gosched()
						}
					}
					if n := arrivals[id][g].Load(); n != int32(tc.cores) {
						t.Errorf("%d cores: core %d passed barrier %d generation %d with %d arrivals", tc.cores, core, id, gen, n)
					}
					now++
				}
			}(core)
		}
		wg.Wait()
		if n := c.Counts().BarrierEpisodes; n != uint64(tc.gens) {
			t.Errorf("%d cores: episodes = %d, want %d", tc.cores, n, tc.gens)
		}
		if c.WaitingAt(0) != 0 || c.WaitingAt(1) != 0 {
			t.Errorf("%d cores: cores left waiting: %d, %d", tc.cores, c.WaitingAt(0), c.WaitingAt(1))
		}
	}
}

// TestTableOverflow holds more locks than the table has slots, so some
// keys find their probe window full and live in the sparse map. Every
// lock must still be found, copied by Snapshot and Restore, and carried
// by the wire format.
func TestTableOverflow(t *testing.T) {
	const n = 2 * lockSlots
	c := New(2)
	for i := uint64(0); i < n; i++ {
		if !c.TryLock(i*64, int(i%2), 1) {
			t.Fatalf("lock %d refused", i)
		}
	}
	if c.locks.count() >= n {
		t.Fatalf("every lock found a table slot; the test needs an overflow")
	}
	snap := c.Snapshot()
	for i := uint64(0); i < n; i += 2 {
		c.Unlock(i*64, 0, 2)
	}
	w := new(wire.Writer)
	c.Encode(w)
	wired, r := New(2), wire.NewReader(w.Bytes())
	if wired.Decode(r); r.Done() != nil {
		t.Fatal(r.Err())
	}
	for i := uint64(0); i < n; i++ {
		if got, want := wired.HeldBy(i*64), int(i%2)*2-1; got != want {
			t.Fatalf("decoded lock %d held by %d, want %d", i, got, want)
		}
	}
	c.Restore(snap)
	if got := c.LocksHeld(); got != n {
		t.Fatalf("restored %d held locks, want %d", got, n)
	}
}
