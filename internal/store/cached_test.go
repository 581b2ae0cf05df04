package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"opendwarfs/internal/obs"
)

func decodeMap(raw json.RawMessage) (any, error) {
	m := map[string]float64{}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m, nil
}

func putCached(t *testing.T, c *CachedStore, key, bench string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(Record{Key: key, Benchmark: bench, Size: "tiny", Device: "d", Schema: 1, Value: raw}); err != nil {
		t.Fatal(err)
	}
}

// slotCounts reads the three slot-cache counters off an Instrumented
// registry.
func slotCounts(reg *obs.Registry) (hits, misses, evictions int64) {
	return reg.CounterValue("slotcache_hits_total"),
		reg.CounterValue("slotcache_misses_total"),
		reg.CounterValue("slotcache_evictions_total")
}

// TestCachedHitMissEviction: the first decoded read is a miss, repeats are
// hits returning the identical shared value, and Put evicts exactly the
// written key's slot.
func TestCachedHitMissEviction(t *testing.T) {
	base, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cached(base)
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)
	putCached(t, c, "k1", "crc", map[string]float64{"ns": 1})
	putCached(t, c, "k2", "fft", map[string]float64{"ns": 2})

	v1, ok, err := c.GetDecoded("k1", decodeMap)
	if err != nil || !ok {
		t.Fatalf("first read: %v, %v", ok, err)
	}
	v2, ok, err := c.GetDecoded("k1", decodeMap)
	if err != nil || !ok {
		t.Fatalf("second read: %v, %v", ok, err)
	}
	// Zero-copy: both reads return the one shared decoded map.
	if fmt.Sprintf("%p", v1) != fmt.Sprintf("%p", v2) {
		t.Fatalf("repeat read decoded a fresh value: %p vs %p", v1, v2)
	}
	if hits, misses, _ := slotCounts(reg); hits != 1 || misses != 1 {
		t.Fatalf("%d hits / %d misses, want 1 / 1", hits, misses)
	}

	// Missing keys are a clean (nil, false, nil) — not a miss.
	if _, ok, err := c.GetDecoded("nope", decodeMap); ok || err != nil {
		t.Fatalf("phantom key: %v, %v", ok, err)
	}
	if _, misses, _ := slotCounts(reg); misses != 1 {
		t.Fatalf("missing key counted as a cache miss: %d misses", misses)
	}

	// Overwriting k1 drops its slot; the next read decodes the new payload.
	putCached(t, c, "k1", "crc", map[string]float64{"ns": 42})
	if _, _, evictions := slotCounts(reg); evictions != 1 {
		t.Fatalf("evictions %d after overwrite, want 1", evictions)
	}
	v3, _, err := c.GetDecoded("k1", decodeMap)
	if err != nil {
		t.Fatal(err)
	}
	if v3.(map[string]float64)["ns"] != 42 {
		t.Fatalf("stale value after Put: %v", v3)
	}
	if _, misses, _ := slotCounts(reg); misses != 2 {
		t.Fatalf("post-eviction read was not a miss: %d misses", misses)
	}
}

// TestCachedCompactKeepsSlots: compaction (direct and size-bounded)
// rewrites the backing files but not the payloads a slot decodes, so every
// slot survives it.
func TestCachedCompactKeepsSlots(t *testing.T) {
	base, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cached(base)
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)
	before := make([]any, 3)
	for i := range before {
		putCached(t, c, fmt.Sprintf("k%d", i), "crc", map[string]float64{"ns": float64(i)})
		if before[i], _, err = c.GetDecoded(fmt.Sprintf("k%d", i), decodeMap); err != nil {
			t.Fatal(err)
		}
	}
	same := func(when string) {
		t.Helper()
		for i, want := range before {
			got, ok, err := c.GetDecoded(fmt.Sprintf("k%d", i), decodeMap)
			if !ok || err != nil {
				t.Fatalf("k%d lost %s: %v, %v", i, when, ok, err)
			}
			if fmt.Sprintf("%p", got) != fmt.Sprintf("%p", want) {
				t.Fatalf("k%d decoded afresh %s", i, when)
			}
		}
		if _, _, evictions := slotCounts(reg); evictions != 0 {
			t.Fatalf("evictions %d %s, want 0", evictions, when)
		}
	}

	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	same("after Compact")
	compacted, err := c.CompactIfOver(1)
	if err != nil || !compacted {
		t.Fatalf("CompactIfOver(1): %v, %v", compacted, err)
	}
	same("after CompactIfOver")
	if compacted, err := c.CompactIfOver(0); err != nil || compacted {
		t.Fatalf("CompactIfOver(0) compacted an unbounded store: %v, %v", compacted, err)
	}
}

// TestCachedHandlesDoNotShareStaleSlots: two handles over one directory
// each decode their own payloads. Once A overwrites k, B's read of its
// older in-memory payload must not leak into A's decoded reads.
func TestCachedHandlesDoNotShareStaleSlots(t *testing.T) {
	dir := t.TempDir()
	baseA, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := Cached(baseA)
	defer a.Close()
	putCached(t, a, "k", "crc", map[string]float64{"v": 1})
	baseB, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := Cached(baseB)
	defer b.Close()

	putCached(t, a, "k", "crc", map[string]float64{"v": 2})
	if _, ok, err := b.GetDecoded("k", decodeMap); !ok || err != nil {
		t.Fatalf("B read: %v, %v", ok, err)
	}
	v, ok, err := a.GetDecoded("k", decodeMap)
	if !ok || err != nil {
		t.Fatalf("A read: %v, %v", ok, err)
	}
	if got := v.(map[string]float64)["v"]; got != 2 {
		t.Fatalf("A decoded v=%v after its own Put of v=2", got)
	}
}

// TestCachedFirstPublishWins: concurrent cold readers may all decode, but
// every caller converges on the single first-published value.
func TestCachedFirstPublishWins(t *testing.T) {
	base, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cached(base)
	defer c.Close()
	putCached(t, c, "k", "crc", map[string]float64{"ns": 1})

	const readers = 16
	var wg sync.WaitGroup
	got := make([]any, readers)
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ok, err := c.GetDecoded("k", func(json.RawMessage) (any, error) {
				return new(int), nil // distinct pointer per decode
			})
			if !ok || err != nil {
				t.Errorf("reader %d: %v, %v", i, ok, err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if got[i] != got[0] {
			t.Fatalf("reader %d received a different value than reader 0", i)
		}
	}
}

// TestCachedInstrumentAgreesWithStats: under concurrency the registry's
// slot-cache counters account for every decoded read exactly once.
func TestCachedInstrumentAgreesWithStats(t *testing.T) {
	base, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cached(base)
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)

	const keys, readers = 8, 4
	for i := range keys {
		putCached(t, c, fmt.Sprintf("k%d", i), "crc", map[string]float64{"ns": float64(i)})
	}
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				if _, _, err := c.GetDecoded(fmt.Sprintf("k%d", i), decodeMap); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	hits, misses, evictions := slotCounts(reg)
	if hits+misses != keys*readers {
		t.Fatalf("hits %d + misses %d != %d reads", hits, misses, keys*readers)
	}
	if misses < keys {
		t.Fatalf("only %d misses over %d keys", misses, keys)
	}
	if evictions != 0 {
		t.Fatalf("evictions %d with nothing overwritten", evictions)
	}
}

// TestCachedDecodeErrorNotCached: a corrupt payload errors on every read
// (never caching the failure) and recovers after an overwrite.
func TestCachedDecodeErrorNotCached(t *testing.T) {
	base, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cached(base)
	defer c.Close()
	if err := c.Put(Record{Key: "k", Benchmark: "crc", Size: "tiny", Device: "d", Schema: 1,
		Value: json.RawMessage(`"not a map"`)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetDecoded("k", decodeMap); err == nil {
		t.Fatal("corrupt payload decoded")
	}
	putCached(t, c, "k", "crc", map[string]float64{"ns": 1})
	if v, ok, err := c.GetDecoded("k", decodeMap); !ok || err != nil || v.(map[string]float64)["ns"] != 1 {
		t.Fatalf("no recovery after overwrite: %v, %v, %v", v, ok, err)
	}
}
