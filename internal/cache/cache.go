// Package cache implements the target system's cache structures: the
// set-associative arrays with MESI state used for the private L1s and the
// shared L2, lock-up-free miss handling via MSHRs, and the global cache
// status map the simulation manager uses to track every L1 copy in the
// machine (the structure whose retrograde updates the paper counts as
// "map violations").
package cache

import (
	"fmt"

	"slacksim/internal/coherence"
)

// LineBytes is the cache line size for every cache in the target system.
const LineBytes = 64

// LineShift converts byte addresses to line addresses.
const LineShift = 6

// LineAddr returns the line address (byte address / LineBytes) of addr.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// Config describes one cache array.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	// LatencyCycles is the access (hit) latency.
	LatencyCycles int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / c.Assoc / LineBytes }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: size and associativity must be positive", c.Name)
	}
	if c.SizeBytes%c.Assoc != 0 || c.SizeBytes/c.Assoc%LineBytes != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by %d-way line groups",
			c.Name, c.SizeBytes, c.Assoc)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// line is one cache tag entry. Data contents live in the target memory
// image; caches model state and timing only, which is all the slack
// machinery observes (the paper's simulator does the same: values are
// fetched just before execution).
type line struct {
	tag   uint64
	state coherence.State
	lru   uint64 // bigger = more recently used
}

// Cache is a set-associative, write-back, write-allocate cache array with
// per-line MESI state.
type Cache struct {
	cfg Config
	// sets are views into flat, one flat backing array for the whole
	// cache: construction is two allocations instead of one per set, and
	// full copies/resets are a single copy/clear.
	sets    [][]line
	flat    []line
	setMask uint64
	lruClk  uint64

	// Statistics.
	Hits, Misses, Evictions, Writebacks uint64
}

// New builds a cache from cfg, panicking on invalid configuration (caches
// are constructed from static target descriptions).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	flat := make([]line, cfg.Sets()*cfg.Assoc)
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = flat[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &Cache{cfg: cfg, sets: sets, flat: flat, setMask: uint64(cfg.Sets() - 1)}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the configured hit latency in cycles.
func (c *Cache) Latency() int { return c.cfg.LatencyCycles }

func (c *Cache) index(lineAddr uint64) (set uint64, tag uint64) {
	return lineAddr & c.setMask, lineAddr >> uint(len64(c.setMask))
}

func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

func (c *Cache) find(lineAddr uint64) *line {
	set, tag := c.index(lineAddr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].state.Valid() && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// State returns the MESI state of lineAddr (Invalid if not present).
func (c *Cache) State(lineAddr uint64) coherence.State {
	if l := c.find(lineAddr); l != nil {
		return l.state
	}
	return coherence.Invalid
}

// Probe looks up lineAddr for a read (write=false) or write (write=true)
// and returns whether it hits. A hit touches LRU and counts a hit; a miss
// counts a miss. Probe does not change MESI state.
func (c *Cache) Probe(lineAddr uint64, write bool) bool {
	l := c.find(lineAddr)
	hit := l != nil && (!write && l.state.CanRead() || write && l.state.CanWrite())
	if hit {
		c.lruClk++
		l.lru = c.lruClk
		c.Hits++
	} else {
		c.Misses++
	}
	return hit
}

// SetState forces the MESI state of a resident line (used when a snooped
// transaction or a reply changes the line's state). It is a no-op when the
// line is absent and newState is Invalid.
func (c *Cache) SetState(lineAddr uint64, s coherence.State) {
	if l := c.find(lineAddr); l != nil {
		l.state = s
		if s == coherence.Invalid {
			l.tag = 0
		}
	} else if s != coherence.Invalid {
		panic(fmt.Sprintf("cache %s: SetState(%#x,%v) on absent line", c.cfg.Name, lineAddr, s))
	}
}

// Victim describes a line displaced by Insert.
type Victim struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
}

// Insert allocates lineAddr in state s, evicting the LRU way if the set is
// full, and returns the victim (Valid=false when an invalid way was free).
// If the line is already resident, its state is updated instead.
func (c *Cache) Insert(lineAddr uint64, s coherence.State) Victim {
	if l := c.find(lineAddr); l != nil {
		l.state = s
		c.lruClk++
		l.lru = c.lruClk
		return Victim{}
	}
	set, tag := c.index(lineAddr)
	ways := c.sets[set]
	vi := 0
	for i := range ways {
		if !ways[i].state.Valid() {
			vi = i
			break
		}
		if ways[i].lru < ways[vi].lru {
			vi = i
		}
	}
	var v Victim
	w := &ways[vi]
	if w.state.Valid() {
		v = Victim{
			LineAddr: w.tag<<uint(len64(c.setMask)) | set,
			Dirty:    w.state.Dirty(),
			Valid:    true,
		}
		c.Evictions++
		if v.Dirty {
			c.Writebacks++
		}
	}
	c.lruClk++
	*w = line{tag: tag, state: s, lru: c.lruClk}
	return v
}

// ForEachValid calls fn for every valid line with its line address and
// state. Iteration order is deterministic (set order, then way order).
func (c *Cache) ForEachValid(fn func(lineAddr uint64, s coherence.State)) {
	shift := uint(len64(c.setMask))
	for set := range c.sets {
		for i := range c.sets[set] {
			l := &c.sets[set][i]
			if l.state.Valid() {
				fn(l.tag<<shift|uint64(set), l.state)
			}
		}
	}
}

// Snapshot deep-copies the cache (tags, states, LRU, stats).
func (c *Cache) Snapshot() *Cache {
	n := New(c.cfg)
	c.SnapshotInto(n)
	return n
}

// SnapshotInto deep-copies the cache's contents into dst, a cache built
// from the same configuration — the pooled-snapshot-graph variant of
// Snapshot, one flat copy and no allocation.
//
//slacksim:hotpath
func (c *Cache) SnapshotInto(dst *Cache) {
	if dst.cfg != c.cfg {
		panic(fmt.Sprintf("cache %s: SnapshotInto mismatched config %s", c.cfg.Name, dst.cfg.Name))
	}
	dst.lruClk = c.lruClk
	dst.Hits, dst.Misses, dst.Evictions, dst.Writebacks =
		c.Hits, c.Misses, c.Evictions, c.Writebacks
	copy(dst.flat, c.flat)
}

// Reset returns the cache to its freshly-constructed state: all lines
// invalid, statistics zeroed. Used when a pooled
// machine is recycled for a new run.
func (c *Cache) Reset() {
	clear(c.flat)
	c.lruClk = 0
	c.Hits, c.Misses, c.Evictions, c.Writebacks = 0, 0, 0, 0
}

// Restore overwrites the cache with the snapshot's contents. The snapshot
// must come from a cache with the same configuration.
//
//slacksim:hotpath
func (c *Cache) Restore(snap *Cache) {
	if snap.cfg != c.cfg {
		panic(fmt.Sprintf("cache %s: restore from mismatched config %s", c.cfg.Name, snap.cfg.Name))
	}
	c.lruClk = snap.lruClk
	c.Hits, c.Misses, c.Evictions, c.Writebacks =
		snap.Hits, snap.Misses, snap.Evictions, snap.Writebacks
	copy(c.flat, snap.flat)
}

// Equal reports whether two caches hold identical tag/state/LRU contents
// and statistics (used by checkpoint-equivalence tests).
func (c *Cache) Equal(o *Cache) bool {
	if c.cfg != o.cfg || c.lruClk != o.lruClk ||
		c.Hits != o.Hits || c.Misses != o.Misses ||
		c.Evictions != o.Evictions || c.Writebacks != o.Writebacks {
		return false
	}
	for i := range c.flat {
		if c.flat[i] != o.flat[i] {
			return false
		}
	}
	return true
}

// StateWords estimates the number of 64-bit words of live state (for the
// checkpoint cost model).
func (c *Cache) StateWords() int {
	return len(c.sets)*c.cfg.Assoc*2 + 8
}
