// Package store persists measured grid cells across processes. Every cell
// is keyed by a deterministic content fingerprint (see fingerprint.go) and
// written as one JSON line to an append-only segment file; opening a store
// replays the compacted snapshot and then every segment in name order, so
// later writes win and a store survives crashes mid-append (a torn final
// line without a newline is discarded, anything else is an error).
//
// The in-memory index is one map behind one RWMutex; readers share it, and
// the segment append path holds its own mutex only for the file write.
// Compact rewrites the live record set into a fresh snapshot and deletes
// the replayed segments.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"opendwarfs/internal/obs"
)

const (
	snapshotName = "snapshot.jsonl"
	segmentGlob  = "seg-*.jsonl"
)

// Record is one stored cell: the fingerprint key, enough metadata to list
// and filter without decoding, and the opaque JSON payload.
type Record struct {
	Key       string          `json:"key"`
	Benchmark string          `json:"benchmark,omitempty"`
	Size      string          `json:"size,omitempty"`
	Device    string          `json:"device,omitempty"`
	Schema    int             `json:"schema,omitempty"`
	Value     json.RawMessage `json:"value"`
}

// Store is a persistent fingerprint → record map backed by JSONL segments.
// All methods are safe for concurrent use.
type Store struct {
	dir string

	// mu guards recs, the live fingerprint → record index.
	mu   sync.RWMutex
	recs map[string]*Record

	// wmu serialises segment appends and compaction.
	wmu      sync.Mutex
	seg      *os.File
	segPath  string
	replayed []string // snapshot + segment files loaded at Open, compaction input

	// Write-path metrics, set by Instrument; nil (no-op) by default. Guarded
	// by wmu, which every reader (Put, Compact) already holds.
	appends     *obs.Counter
	compactions *obs.Counter
}

// Instrument registers write-path metrics on reg: store_appends_total
// (records appended to segments) and store_compactions_total (snapshot
// rewrites). Safe to call at any time, including concurrently with Put;
// a nil registry de-instruments.
func (s *Store) Instrument(reg *obs.Registry) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.appends = reg.Counter(mAppendsTotal)
	s.compactions = reg.Counter(mCompactionsTotal)
}

// Write-path metric names (obsnames-checked).
const (
	mAppendsTotal     = "store_appends_total"
	mCompactionsTotal = "store_compactions_total"
)

// Open loads (creating if necessary) the store at dir. A dir holding
// shard-* subdirectories — the retired multi-directory layout — is refused
// rather than opened as an empty store; see README for how to merge one.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
	for _, sh := range shards {
		if fi, err := os.Stat(sh); err == nil && fi.IsDir() {
			return nil, fmt.Errorf("store: %s holds the retired sharded layout (%s/); merge its shard-* directories into one store first (see README)", dir, filepath.Base(sh))
		}
	}
	s := &Store{dir: dir, recs: make(map[string]*Record)}

	var files []string
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		files = append(files, filepath.Join(dir, snapshotName))
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	files = append(files, segs...)
	for _, f := range files {
		if err := s.replay(f); err != nil {
			return nil, err
		}
	}
	s.replayed = files
	return s, nil
}

// replay loads one JSONL file into the index, later lines overriding earlier
// ones. A torn final line (no trailing newline, from a crash mid-append) is
// silently dropped; a malformed interior line is an error.
func (s *Store) replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return nil // a non-empty line here is a torn tail write: discard it
		}
		if err != nil {
			return fmt.Errorf("store: %s: %w", path, err)
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("store: %s line %d: %w", path, lineNo, err)
		}
		if rec.Key == "" {
			return fmt.Errorf("store: %s line %d: record with empty key", path, lineNo)
		}
		s.recs[rec.Key] = &rec
	}
}

// Get returns the stored payload for key. The returned bytes must not be
// modified.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.RLock()
	rec, ok := s.recs[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return rec.Value, true
}

// GetDecoded decodes key's payload afresh on every call; wrap the store
// in Cached to share one decoded value across readers.
func (s *Store) GetDecoded(key string, decode DecodeFunc) (any, bool, error) {
	raw, ok := s.Get(key)
	if !ok {
		return nil, false, nil
	}
	v, err := decode(raw)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Put appends the record to the current segment and publishes it in the
// index. Re-putting an existing key overwrites it (last write wins).
func (s *Store) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.seg == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	if _, err := s.seg.Write(line); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.appends.Inc()
	// Publish while still holding wmu: the index update must be ordered
	// with the segment append, or a concurrent Compact could snapshot
	// without this record yet delete the segment that carries it, and two
	// racing Puts of one key could leave the index disagreeing with the
	// on-disk last-write-wins replay. wmu → mu is the only nesting order
	// in the package (Compact's Records() nests the same way), so this
	// cannot deadlock.
	s.mu.Lock()
	s.recs[rec.Key] = &rec
	s.mu.Unlock()
	return nil
}

// openSegmentLocked creates this writer's private append segment. O_EXCL
// plus a retry on the sequence number keeps concurrent processes from
// sharing a file.
func (s *Store) openSegmentLocked() error {
	next := 1
	if segs, err := filepath.Glob(filepath.Join(s.dir, segmentGlob)); err == nil {
		for _, seg := range segs {
			var n int
			name := filepath.Base(seg)
			if _, err := fmt.Sscanf(name, "seg-%d.jsonl", &n); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	for try := 0; try < 10000; try++ {
		path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", next+try))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err == nil {
			s.seg, s.segPath = f, path
			return nil
		}
		if !os.IsExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return fmt.Errorf("store: could not allocate a segment in %s", s.dir)
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// SortRecords sorts recs into the canonical listing order every CellStore
// implementation must produce from Records: (benchmark, size, device)
// with the fingerprint key as the final tiebreak. The key makes the order
// a total one — two records can never compare equal — so the listing is
// deterministic regardless of map iteration order or segment replay order.
func SortRecords(recs []*Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Key < b.Key
	})
}

// Records returns a stable listing of every live record in the canonical
// SortRecords order — the order the serving layer and exports present
// cells in.
func (s *Store) Records() []*Record {
	s.mu.RLock()
	out := make([]*Record, 0, len(s.recs))
	for _, rec := range s.recs {
		out = append(out, rec)
	}
	s.mu.RUnlock()
	SortRecords(out)
	return out
}

// Compact rewrites the live record set into a fresh snapshot (atomically,
// via rename) and removes the snapshot/segment files it replaces. Records
// appended by this process after Open are folded in; segments created by
// other processes since Open are left untouched.
func (s *Store) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()

	recs := s.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })

	tmp, err := os.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	// Drop the files the snapshot now subsumes: everything replayed at Open
	// plus our own segment.
	obsolete := append([]string(nil), s.replayed...)
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
		obsolete = append(obsolete, s.segPath)
	}
	for _, f := range obsolete {
		if filepath.Base(f) == snapshotName {
			continue // just replaced in place
		}
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.replayed = []string{filepath.Join(s.dir, snapshotName)}
	s.compactions.Inc()
	return nil
}

// Close flushes and closes the append segment. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Segments reports how many snapshot/segment files back the store right
// now — a health metric for the serving layer.
func (s *Store) Segments() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	n, _, _ := s.diskFootprintLocked()
	return n
}

// DiskBytes reports the store's on-disk footprint: the byte total of the
// snapshot plus every segment file.
func (s *Store) DiskBytes() (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, bytes, err := s.diskFootprintLocked()
	return bytes, err
}

// diskFootprintLocked counts and sizes the backing files. Callers hold wmu.
func (s *Store) diskFootprintLocked() (files int, bytes int64, err error) {
	paths := []string{filepath.Join(s.dir, snapshotName)}
	if segs, gerr := filepath.Glob(filepath.Join(s.dir, segmentGlob)); gerr == nil {
		paths = append(paths, segs...)
	}
	for _, p := range paths {
		fi, serr := os.Stat(p)
		if serr != nil {
			if !os.IsNotExist(serr) && err == nil {
				err = fmt.Errorf("store: %w", serr)
			}
			continue
		}
		files++
		bytes += fi.Size()
	}
	return files, bytes, err
}

// CompactIfOver is the size-bounded snapshot: when the snapshot + segment
// footprint exceeds maxBytes, the live record set is rewritten into a
// fresh snapshot and the dead segments are garbage-collected (see
// Compact). Returns whether a compaction ran. A maxBytes ≤ 0 never
// compacts.
func (s *Store) CompactIfOver(maxBytes int64) (bool, error) {
	if maxBytes <= 0 {
		return false, nil
	}
	bytes, err := s.DiskBytes()
	if err != nil {
		return false, err
	}
	if bytes <= maxBytes {
		return false, nil
	}
	return true, s.Compact()
}
