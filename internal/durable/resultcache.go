package durable

import (
	"encoding/json"
	"log"

	"slacksim"
	"slacksim/internal/service/resultcache"
)

// ResultCache presents a Store as the server's result cache: a bounded
// LRU memory tier in front of the persistent content-addressed store.
// Both tiers hold a result's JSON encoding, made once when its job
// finished; the bytes a disk hit returns are the bytes that were stored,
// so they are what the server splices into its replies.
type ResultCache struct {
	store *Store
	mem   *resultcache.Cache[json.RawMessage]
}

// NewResultCache fronts store with a memEntries-entry LRU tier.
func NewResultCache(store *Store, memEntries int) *ResultCache {
	return &ResultCache{store: store, mem: resultcache.New[json.RawMessage](memEntries)}
}

// Get returns the cached encoding for key, consulting the memory tier
// first and falling back to the store. A stored record is promoted only
// after it decodes as slacksim.Results, so a record that passed its CRC
// but is not a result never reaches a client: it counts as a miss and
// the job runs again, overwriting it.
func (c *ResultCache) Get(key string) (json.RawMessage, bool) {
	if blob, ok := c.mem.Get(key); ok {
		return blob, true
	}
	blob, ok := c.store.Get(key)
	if !ok {
		return nil, false
	}
	if err := json.Unmarshal(blob, new(slacksim.Results)); err != nil {
		log.Printf("durable: result for %s does not decode (dropping): %v", key, err)
		return nil, false
	}
	c.mem.Put(key, blob)
	return blob, true
}

// Put stores the encoding durably and in the memory tier.
func (c *ResultCache) Put(key string, blob json.RawMessage) {
	c.mem.Put(key, blob)
	if err := c.store.Put(key, blob); err != nil {
		log.Printf("durable: persisting result for %s: %v", key, err)
	}
}

// Len returns the number of durably stored results.
func (c *ResultCache) Len() int { return c.store.Len() }

// Stats reports the memory tier's counters (the server's cache metrics).
func (c *ResultCache) Stats() resultcache.Stats { return c.mem.Stats() }

// StoreStats reports the persistent tier's counters.
func (c *ResultCache) StoreStats() StoreStats { return c.store.Stats() }
