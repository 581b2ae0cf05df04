package store

// The CellStore interface is the seam between the persistence layer and
// everything that reads or writes measured cells: the harness's incremental
// grid runs, predict's training path, the scheduler's cost provider and the
// dwarfserve query surface all speak CellStore, never *Store. That is what
// lets one logical store be a plain directory (*Store), a fan-out over N
// shard directories (Sharded), or either of those behind the zero-copy slot
// cache (Cached) — composed freely, without any consumer changing.

import (
	"encoding/json"

	"opendwarfs/internal/obs"
)

// CellStore is the persistent fingerprint → record map every consumer
// programs against. Implementations must be safe for concurrent use.
type CellStore interface {
	// Get returns the stored payload for key. The returned bytes must not
	// be modified.
	Get(key string) (json.RawMessage, bool)
	// GetDecoded returns key's payload run through decode: (value, true,
	// nil) when the key exists, (nil, false, nil) when it does not, and a
	// non-nil error when the stored payload does not decode. A plain or
	// sharded store decodes on every call; Cached decodes at most once per
	// cache lifetime and hands every reader the same value.
	GetDecoded(key string, decode DecodeFunc) (any, bool, error)
	// Lookup returns the full record for key, or nil.
	Lookup(key string) *Record
	// Put persists the record and publishes it (last write wins).
	Put(rec Record) error
	// Records returns a stable listing of every live record, sorted by
	// (benchmark, size, device, key) — see SortRecords.
	Records() []*Record
	// Len returns the number of live records.
	Len() int
	// Compact rewrites the live record set into a fresh snapshot and
	// retires the dead seg-*.jsonl files it subsumes.
	Compact() error
	// DiskBytes reports the on-disk footprint: snapshot plus segments.
	DiskBytes() (int64, error)
	// CompactIfOver compacts when DiskBytes exceeds maxBytes, reporting
	// whether it did; maxBytes ≤ 0 never compacts.
	CompactIfOver(maxBytes int64) (bool, error)
	// Segments reports how many snapshot/segment files back the store — a
	// health metric for the serving layer.
	Segments() int
	// Instrument registers the store's counters on reg; a nil registry
	// de-instruments.
	Instrument(reg *obs.Registry)
	// Dir returns the directory backing the store, or "" when it has none
	// (a Sharded composition of existing stores).
	Dir() string
	// Close releases the store's file handles. The store must not be used
	// afterwards.
	Close() error
}

// DecodeFunc turns a stored payload into its decoded form. Decoders must
// return a value that is immutable from the caller's point of view: a
// Cached store hands the same decoded value to every subsequent reader.
type DecodeFunc func(raw json.RawMessage) (any, error)

var _ CellStore = (*Store)(nil)
