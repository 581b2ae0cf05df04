package store

import (
	"encoding/json"
	"sync"

	"opendwarfs/internal/obs"
)

// CachedStore wraps any CellStore with the zero-copy slot cache: a store
// hit served through GetDecoded returns the handle's shared decoded cell
// instead of re-parsing its JSONL payload. The slot table belongs to this
// handle alone, so every reader behind it — a Session, a job, a query
// handler — shares one decoded copy of each cell, and a slot is always a
// decoding of this handle's own in-memory payload.
//
// Put drops the written key's slot (the payload changed). Compaction
// rewrites the backing files but never the in-memory payloads, so it keeps
// every slot.
type CachedStore struct {
	inner CellStore

	mu    sync.RWMutex
	slots map[string]any

	// Metric handles, set by Instrument; nil (no-op) by default.
	mHits, mMisses, mEvictions *obs.Counter
}

// Cached wraps inner with an empty slot cache.
func Cached(inner CellStore) *CachedStore {
	return &CachedStore{inner: inner, slots: make(map[string]any)}
}

// Instrument registers the slot-cache counters on reg —
// slotcache_hits_total, slotcache_misses_total, slotcache_evictions_total
// — and forwards to the inner store's Instrument, so one call wires the
// whole read/write stack. A nil registry de-instruments.
func (c *CachedStore) Instrument(reg *obs.Registry) {
	c.mHits = reg.Counter(mSlotHitsTotal)
	c.mMisses = reg.Counter(mSlotMissesTotal)
	c.mEvictions = reg.Counter(mSlotEvictionsTotal)
	c.inner.Instrument(reg)
}

// Slot-cache metric names (obsnames-checked).
const (
	mSlotHitsTotal      = "slotcache_hits_total"
	mSlotMissesTotal    = "slotcache_misses_total"
	mSlotEvictionsTotal = "slotcache_evictions_total"
)

// GetDecoded serves the decoded form of key's payload: a slot hit returns
// the shared value with zero parsing; a miss reads the raw payload from
// the inner store, decodes it outside the lock, publishes the slot and
// returns it. Concurrent missers may decode twice but all receive the
// first-published value. A decode error is not cached, so an overwrite can
// recover.
func (c *CachedStore) GetDecoded(key string, decode DecodeFunc) (any, bool, error) {
	c.mu.RLock()
	v, ok := c.slots[key]
	c.mu.RUnlock()
	if ok {
		c.mHits.Inc()
		return v, true, nil
	}
	raw, ok := c.inner.Get(key)
	if !ok {
		return nil, false, nil
	}
	c.mMisses.Inc()
	v, err := decode(raw)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if won, ok := c.slots[key]; ok {
		v = won
	} else {
		c.slots[key] = v
	}
	c.mu.Unlock()
	return v, true, nil
}

// Get returns the raw stored payload; raw reads bypass the slot cache.
func (c *CachedStore) Get(key string) (json.RawMessage, bool) { return c.inner.Get(key) }

// Put writes through to the inner store and drops the key's slot — the
// decoded value no longer matches the payload.
func (c *CachedStore) Put(rec Record) error {
	if err := c.inner.Put(rec); err != nil {
		return err
	}
	c.mu.Lock()
	_, ok := c.slots[rec.Key]
	delete(c.slots, rec.Key)
	c.mu.Unlock()
	if ok {
		c.mEvictions.Inc()
	}
	return nil
}

// Records returns the inner store's stable listing.
func (c *CachedStore) Records() []*Record { return c.inner.Records() }

// Len returns the inner store's live record count.
func (c *CachedStore) Len() int { return c.inner.Len() }

// Compact garbage-collects the inner store; slots survive.
func (c *CachedStore) Compact() error { return c.inner.Compact() }

// DiskBytes reports the inner store's on-disk footprint.
func (c *CachedStore) DiskBytes() (int64, error) { return c.inner.DiskBytes() }

// CompactIfOver bounds the inner store's footprint; slots survive.
func (c *CachedStore) CompactIfOver(maxBytes int64) (bool, error) {
	return c.inner.CompactIfOver(maxBytes)
}

// Segments reports the inner store's backing-file count.
func (c *CachedStore) Segments() int { return c.inner.Segments() }

// Close closes the inner store.
func (c *CachedStore) Close() error { return c.inner.Close() }

var _ CellStore = (*CachedStore)(nil)
