package mem

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"slacksim/internal/wire"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write(0x1000, 42)
	if got := m.Read(0x1000); got != 42 {
		t.Errorf("Read = %d, want 42", got)
	}
	m.Write(0x1000, 43)
	if got := m.Read(0x1000); got != 43 {
		t.Errorf("overwrite Read = %d, want 43", got)
	}
}

func TestUnallocatedReadsZero(t *testing.T) {
	m := New()
	if got := m.Read(0xDEAD_BEE8); got != 0 {
		t.Errorf("unallocated Read = %d, want 0", got)
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	m.Read(0x1001)
}

func TestFloatRoundTrip(t *testing.T) {
	m := New()
	for i, v := range []float64{0, 1.5, -math.Pi, math.Inf(-1)} {
		addr := uint64(i * 8)
		m.WriteFloat(addr, v)
		if got := m.ReadFloat(addr); got != v {
			t.Errorf("float at %#x = %v, want %v", addr, got, v)
		}
	}
}

func TestPageBoundaries(t *testing.T) {
	m := New()
	// Adjacent words across a page boundary must not interfere.
	last := uint64(PageWords-1) * 8
	first := uint64(PageWords) * 8
	m.Write(last, 1)
	m.Write(first, 2)
	if m.Read(last) != 1 || m.Read(first) != 2 {
		t.Error("page boundary interference")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := New()
	m.Write(0x2000, 7)
	snap := m.Snapshot()
	m.Write(0x2000, 8)
	m.Write(0x3000, 9)
	if snap.Read(0x2000) != 7 || snap.Read(0x3000) != 0 {
		t.Error("snapshot not isolated from later writes")
	}
}

func TestRestore(t *testing.T) {
	m := New()
	m.Write(0x10, 1)
	m.Write(0x18, 2)
	snap := m.Snapshot()
	m.Write(0x10, 99)
	m.Write(0x2000, 50)
	m.Restore(snap)
	if m.Read(0x10) != 1 || m.Read(0x18) != 2 {
		t.Error("restore lost original values")
	}
	if m.Read(0x2000) != 0 {
		t.Error("restore kept post-snapshot page")
	}
	if !m.Equal(snap) {
		t.Error("restored memory not Equal to snapshot")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(), New()
	if !a.Equal(b) {
		t.Error("two empty memories unequal")
	}
	a.Write(0x100, 5)
	if a.Equal(b) {
		t.Error("different contents equal")
	}
	b.Write(0x100, 5)
	if !a.Equal(b) {
		t.Error("same contents unequal")
	}
	// A zero-valued allocated page equals an absent page.
	a.Write(0x4000, 0)
	if !a.Equal(b) {
		t.Error("zero page must equal absent page")
	}
}

func TestAllocatedWords(t *testing.T) {
	m := New()
	if m.AllocatedWords() != 0 {
		t.Error("fresh memory has allocations")
	}
	m.Write(0, 1)
	if got := m.AllocatedWords(); got != PageWords {
		t.Errorf("AllocatedWords = %d, want %d", got, PageWords)
	}
	m.Write(8, 2) // same page
	if got := m.AllocatedWords(); got != PageWords {
		t.Errorf("AllocatedWords after same-page write = %d", got)
	}
}

// TestConcurrentAccess has goroutines first-touch the same pages at
// once, dense and sparse, each writing its own words. Every write must
// read back, and AllocatedWords must count each page once however many
// goroutines raced to install it.
func TestConcurrentAccess(t *testing.T) {
	const workers, pages = 8, 64
	m := New()
	base := func(p int) uint64 {
		if p%8 == 7 {
			return 5<<32 + uint64(p)*PageWords*8 // above the dense range
		}
		return uint64(p) * PageWords * 8
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for p := 0; p < pages; p++ {
				addr := base(p) + uint64(g)*8
				m.Write(addr, uint64(p<<8|g))
				if got := m.Read(addr); got != uint64(p<<8|g) {
					t.Errorf("goroutine %d page %d: read %d back", g, p, got)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for p := 0; p < pages; p++ {
		for g := 0; g < workers; g++ {
			if got := m.Read(base(p) + uint64(g)*8); got != uint64(p<<8|g) {
				t.Errorf("page %d word %d = %d after the race", p, g, got)
			}
		}
	}
	if got := m.AllocatedWords(); got != pages*PageWords {
		t.Errorf("AllocatedWords = %d, want %d", got, pages*PageWords)
	}
}

// Property: a batch of random writes reads back exactly (last write per
// address wins).
func TestQuickWriteRead(t *testing.T) {
	prop := func(addrs []uint16, vals []uint64) bool {
		m := New()
		want := map[uint64]uint64{}
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := uint64(addrs[i]) * 8
			m.Write(a, vals[i])
			want[a] = vals[i]
		}
		for a, v := range want {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Snapshot/Restore is lossless for any write set.
func TestQuickSnapshotRestore(t *testing.T) {
	prop := func(addrs []uint16, vals []uint64) bool {
		m := New()
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			m.Write(uint64(addrs[i])*8, vals[i])
		}
		snap := m.Snapshot()
		m.Write(0x9999_9998, 123)
		m.Restore(snap)
		return m.Equal(snap)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSparsePages covers pages above the dense range: they read back,
// count as allocated, and go through Snapshot, Restore, Equal, Reset and
// the wire format like dense ones.
func TestSparsePages(t *testing.T) {
	const hi = 7 << 40
	m := New()
	m.Write(hi, 1)
	m.Write(0x2000, 2)
	snap := m.Snapshot()
	m.Write(hi+PageWords*8, 3)
	if m.Read(hi) != 1 || m.AllocatedWords() != 3*PageWords {
		t.Fatalf("sparse page read %d, %d words allocated", m.Read(hi), m.AllocatedWords())
	}
	m.Restore(snap)
	if !m.Equal(snap) || m.Read(hi+PageWords*8) != 0 || m.AllocatedWords() != 2*PageWords {
		t.Fatal("restore kept a later sparse page")
	}
	w := new(wire.Writer)
	m.Encode(w)
	got, r := New(), wire.NewReader(w.Bytes())
	if got.Decode(r); r.Done() != nil || !got.Equal(m) || got.AllocatedWords() != m.AllocatedWords() {
		t.Fatalf("sparse page lost on the wire: %v", r.Err())
	}
	m.Reset()
	if m.AllocatedWords() != 0 || m.Read(hi) != 0 {
		t.Fatal("Reset kept a sparse page")
	}
}

// TestRestoreAllocatesNothing: after warm-up a checkpoint copy and a
// rollback reuse the pages already in their slots.
func TestRestoreAllocatesNothing(t *testing.T) {
	live, ckpt := New(), New()
	for i := uint64(0); i < 64; i++ {
		live.Write(i*PageWords*8*3, i)
	}
	allocs := testing.AllocsPerRun(20, func() {
		live.SnapshotInto(ckpt)
		live.Write(1<<30, 1) // a page first touched after the checkpoint
		live.Restore(ckpt)   // takes it out again, keeping it in its slot
	})
	if allocs != 0 {
		t.Errorf("checkpoint and rollback allocate %.1f times", allocs)
	}
}
