package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"opendwarfs/internal/obs"
)

// ShardedStore fans one logical CellStore out over N shards, routed by the
// same 16-way fingerprint shard index the in-memory Store uses — a key
// always lands on shard FingerprintShard(key) % N, so shard membership is
// a pure function of the fingerprint and two processes over the same shard
// set agree on placement without coordination. Reads and writes touch
// exactly one shard; Records and Len scatter-gather across all of them,
// and the gathered listing is re-sorted into the canonical record order,
// so a sharded store's exports are byte-identical to a single store
// holding the same cells.
type ShardedStore struct {
	shards []CellStore
	dir    string // root directory when built by OpenSharded, else ""
}

// Sharded composes existing stores into one logical store. At least one
// shard is required and at most 16 — routing reuses the 16-way fingerprint
// shard index, so more shards than fingerprint classes cannot be filled.
func Sharded(shards []CellStore) (*ShardedStore, error) {
	if len(shards) == 0 || len(shards) > nShards {
		return nil, fmt.Errorf("store: sharded store wants 1..%d shards, got %d", nShards, len(shards))
	}
	return &ShardedStore{shards: shards}, nil
}

// OpenSharded opens (creating if necessary) an n-way sharded store rooted
// at dir: shard i lives in dir/shard-NN, each an ordinary segment store.
// For even key balance pick n dividing 16 (1, 2, 4, 8, 16); other counts
// work but load the low-numbered shards more heavily.
func OpenSharded(dir string, n int) (*ShardedStore, error) {
	if n <= 0 || n > nShards {
		return nil, fmt.Errorf("store: sharded store wants 1..%d shards, got %d", nShards, n)
	}
	shards := make([]CellStore, n)
	for i := range shards {
		st, err := Open(filepath.Join(dir, fmt.Sprintf("shard-%02d", i)))
		if err != nil {
			for _, open := range shards[:i] {
				open.Close()
			}
			return nil, err
		}
		shards[i] = st
	}
	return &ShardedStore{shards: shards, dir: dir}, nil
}

// route picks the shard owning key.
func (s *ShardedStore) route(key string) CellStore {
	return s.shards[FingerprintShard(key)%len(s.shards)]
}

// Shards returns the shard count.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// Dir returns the root directory when the store was built by OpenSharded.
func (s *ShardedStore) Dir() string { return s.dir }

// Get returns the stored payload for key from its owning shard.
func (s *ShardedStore) Get(key string) (json.RawMessage, bool) { return s.route(key).Get(key) }

// GetDecoded decodes key's payload through its owning shard.
func (s *ShardedStore) GetDecoded(key string, decode DecodeFunc) (any, bool, error) {
	return s.route(key).GetDecoded(key, decode)
}

// Lookup returns the full record for key, or nil.
func (s *ShardedStore) Lookup(key string) *Record { return s.route(key).Lookup(key) }

// Put persists the record on its owning shard.
func (s *ShardedStore) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	return s.route(rec.Key).Put(rec)
}

// Records scatter-gathers every shard's listing concurrently and re-sorts
// the union into the canonical (benchmark, size, device, key) order, so
// the result is independent of both shard count and per-shard iteration
// order.
func (s *ShardedStore) Records() []*Record {
	parts := make([][]*Record, len(s.shards))
	var wg sync.WaitGroup
	wg.Add(len(s.shards))
	for i, sh := range s.shards {
		go func(i int, sh CellStore) {
			defer wg.Done()
			parts[i] = sh.Records()
		}(i, sh)
	}
	wg.Wait()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]*Record, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	SortRecords(out)
	return out
}

// Len sums the shards' live record counts.
func (s *ShardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Compact garbage-collects every shard.
func (s *ShardedStore) Compact() error {
	var errs []error
	for _, sh := range s.shards {
		errs = append(errs, sh.Compact())
	}
	return errors.Join(errs...)
}

// DiskBytes sums the shards' on-disk footprints.
func (s *ShardedStore) DiskBytes() (int64, error) {
	var total int64
	for _, sh := range s.shards {
		n, err := sh.DiskBytes()
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// CompactIfOver bounds the logical store's footprint by giving each shard
// an equal slice of the budget: a shard compacts when its own footprint
// exceeds maxBytes / len(shards). Returns whether any shard compacted.
func (s *ShardedStore) CompactIfOver(maxBytes int64) (bool, error) {
	perShard := maxBytes / int64(len(s.shards))
	any := false
	var errs []error
	for _, sh := range s.shards {
		compacted, err := sh.CompactIfOver(perShard)
		any = any || compacted
		errs = append(errs, err)
	}
	return any, errors.Join(errs...)
}

// Segments sums the shards' backing-file counts.
func (s *ShardedStore) Segments() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Segments()
	}
	return n
}

// Instrument registers every shard's counters on reg. Shards share the
// registry's named counters, so store_appends_total et al. aggregate
// across the whole shard set.
func (s *ShardedStore) Instrument(reg *obs.Registry) {
	for _, sh := range s.shards {
		sh.Instrument(reg)
	}
}

// Close closes every shard, joining their errors.
func (s *ShardedStore) Close() error {
	var errs []error
	for _, sh := range s.shards {
		errs = append(errs, sh.Close())
	}
	return errors.Join(errs...)
}

var _ CellStore = (*ShardedStore)(nil)
