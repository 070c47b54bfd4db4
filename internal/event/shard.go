package event

import (
	"sync"
	"sync/atomic"
)

// shardChunkSize is the number of items per chunk. A chunk is the unit of
// producer/consumer hand-off and of free-list recycling, so the per-item
// synchronization cost is two atomic counters and the per-chunk cost is
// one (amortized) mutex acquisition.
const shardChunkSize = 256

type shardChunk[T any] struct {
	next atomic.Pointer[shardChunk[T]]
	buf  [shardChunkSize]T
}

// Shard is a single-producer single-consumer FIFO built as a chunked
// linked list: the producing core appends to the tail chunk lock-free and
// the consuming manager drains from the head chunk lock-free, so the
// per-core out-queues become contention-free shards of the global queue
// (the manager's drainAll is the merge point that rebuilds the total
// service order).
//
// Synchronization is two monotonic atomic counters: published (producer)
// and consumed (consumer). A consumer that observes published >= k is, by
// the Go memory model's atomic synchronized-before rule, guaranteed to
// see the producer's write of item k-1; chunk hand-off through the free
// list is ordered by its mutex, which both sides touch at most once per
// shardChunkSize operations. The list grows instead of blocking when the
// producer outruns the consumer, which also makes the type safe for the
// deterministic host, where the same goroutine pushes and later drains.
//
// Snapshot, SnapshotInto, Restore, and Reset require the shard to be
// quiesced (no concurrent producer or consumer) — exactly the checkpoint
// boundaries where they are called.
type Shard[T any] struct {
	published atomic.Int64 // producer-advanced: items ever pushed
	consumed  atomic.Int64 // consumer-advanced: items ever popped

	tail    *shardChunk[T] // producer-owned
	tailPos int            // producer-owned: next write slot in tail

	head    *shardChunk[T] // consumer-owned
	headPos int            // consumer-owned: next read slot in head

	freeMu sync.Mutex
	free   []*shardChunk[T] // guarded by freeMu
}

// NewShard returns an empty shard.
func NewShard[T any]() *Shard[T] {
	c := &shardChunk[T]{}
	return &Shard[T]{head: c, tail: c}
}

// grabChunk pops a recycled chunk or allocates a fresh one (producer
// side). The popped chunk is invisible to the consumer until linked, so
// resetting its next pointer here is race-free.
//
//slacksim:hotpath
//slacksim:pooled
func (s *Shard[T]) grabChunk() *shardChunk[T] {
	s.freeMu.Lock()
	var c *shardChunk[T]
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.freeMu.Unlock()
	if c == nil {
		c = &shardChunk[T]{} //lint:allow hotpathalloc -- pool warm-up: runs only while the chunk free list is empty
	}
	c.next.Store(nil)
	return c
}

// releaseChunk returns a fully consumed chunk to the free list (consumer
// side). Its slots were zeroed as they were consumed, so the recycled
// chunk pins nothing.
//
//slacksim:hotpath
func (s *Shard[T]) releaseChunk(c *shardChunk[T]) {
	s.freeMu.Lock()
	s.free = append(s.free, c) //lint:allow hotpathalloc -- free-list growth is bounded by the high-water chunk count, then reused forever
	s.freeMu.Unlock()
}

// advanceHead moves the consumer to the next chunk. The caller has
// established that unconsumed published items exist beyond the exhausted
// head chunk, which implies the producer linked next before publishing
// them, so the load cannot observe nil.
//
//slacksim:hotpath
func (s *Shard[T]) advanceHead() *shardChunk[T] {
	old := s.head
	next := old.next.Load()
	s.head = next
	s.headPos = 0
	s.releaseChunk(old)
	return next
}

// Push appends an item (producer only). The fast path is one slot write
// and one atomic add; crossing a chunk boundary additionally takes the
// free-list mutex once.
//
//slacksim:hotpath
func (s *Shard[T]) Push(v T) {
	c := s.tail
	if s.tailPos == shardChunkSize {
		nc := s.grabChunk()
		c.next.Store(nc)
		s.tail = nc
		s.tailPos = 0
		c = nc
	}
	c.buf[s.tailPos] = v
	s.tailPos++
	s.published.Add(1)
}

// Pop removes and returns the head item (consumer only); ok is false when
// empty.
//
//slacksim:hotpath
func (s *Shard[T]) Pop() (v T, ok bool) {
	if s.consumed.Load() == s.published.Load() {
		return v, false
	}
	c := s.head
	if s.headPos == shardChunkSize {
		c = s.advanceHead()
	}
	v = c.buf[s.headPos]
	var zero T
	c.buf[s.headPos] = zero
	s.headPos++
	s.consumed.Add(1)
	return v, true
}

// Len returns the number of queued items (two atomic loads, callable from
// either side; a racing reader may see a push one tick late, which the
// slack protocols already tolerate).
//
//slacksim:hotpath
func (s *Shard[T]) Len() int {
	return int(s.published.Load() - s.consumed.Load())
}

// DrainInto removes every item visible at entry, in order, appending them
// to buf (returned). Consumer only; with a reused buf the steady state
// allocates nothing.
//
//slacksim:hotpath
func (s *Shard[T]) DrainInto(buf []T) []T {
	avail := s.published.Load() - s.consumed.Load()
	for avail > 0 {
		c := s.head
		if s.headPos == shardChunkSize {
			c = s.advanceHead()
		}
		n := shardChunkSize - s.headPos
		if int64(n) > avail {
			n = int(avail)
		}
		buf = append(buf, c.buf[s.headPos:s.headPos+n]...)
		clear(c.buf[s.headPos : s.headPos+n])
		s.headPos += n
		s.consumed.Add(int64(n))
		avail -= int64(n)
	}
	return buf
}

// Snapshot copies the shard contents (quiesced only).
func (s *Shard[T]) Snapshot() []T {
	return s.snapshotAppend(nil)
}

// SnapshotInto copies the shard contents into buf's backing array
// (truncating buf first) and returns it, for checkpoints that reuse
// their buffers. Quiesced only.
//
//slacksim:hotpath
func (s *Shard[T]) SnapshotInto(buf []T) []T {
	return s.snapshotAppend(buf[:0])
}

//slacksim:hotpath
func (s *Shard[T]) snapshotAppend(buf []T) []T {
	n := s.published.Load() - s.consumed.Load()
	c, pos := s.head, s.headPos
	for n > 0 {
		if pos == shardChunkSize {
			c = c.next.Load()
			pos = 0
		}
		k := shardChunkSize - pos
		if int64(k) > n {
			k = int(n)
		}
		buf = append(buf, c.buf[pos:pos+k]...)
		pos += k
		n -= int64(k)
	}
	return buf
}

// Restore replaces the shard contents (quiesced only), reusing chunks.
//
//slacksim:hotpath
func (s *Shard[T]) Restore(items []T) {
	s.Reset()
	for _, v := range items {
		s.Push(v)
	}
}

// Reset empties the shard (quiesced only), recycling every chunk and
// clearing retained values so a pooled shard pins nothing from its
// previous run.
//
//slacksim:hotpath
func (s *Shard[T]) Reset() {
	for c := s.head; c != s.tail; {
		next := c.next.Load()
		clear(c.buf[:])
		c.next.Store(nil)
		s.releaseChunk(c)
		c = next
	}
	clear(s.tail.buf[:])
	s.tail.next.Store(nil)
	s.head = s.tail
	s.headPos = 0
	s.tailPos = 0
	s.published.Store(0)
	s.consumed.Store(0)
}
