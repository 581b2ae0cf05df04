package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fillStore writes n records with fingerprint keys spread across benchmarks
// and devices into any CellStore.
func fillStore(t *testing.T, st CellStore, n int) []Record {
	t.Helper()
	recs := make([]Record, 0, n)
	for i := range n {
		rec := Record{
			Key:       Fingerprint("test/cell", 1, i),
			Benchmark: fmt.Sprintf("bench%d", i%5),
			Size:      []string{"tiny", "small", "large"}[i%3],
			Device:    fmt.Sprintf("dev%d", i%4),
			Schema:    1,
			Value:     json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
		}
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// listing flattens a store's Records into comparable (key, value) tuples.
func listing(st CellStore) []string {
	recs := st.Records()
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key + "=" + string(r.Value)
	}
	return out
}

// TestShardedMatchesSingleStore is the determinism regression for the
// scatter-gather read path: a sharded store and a single store holding the
// same cells produce identical Records listings — same canonical
// (benchmark, size, device, key) order, same payloads — at several shard
// counts, including ones that do not divide 16.
func TestShardedMatchesSingleStore(t *testing.T) {
	single, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	recs := fillStore(t, single, 60)
	want := listing(single)

	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		sh, err := OpenSharded(t.TempDir(), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := sh.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		if got := listing(sh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-way listing differs from single store:\ngot  %v\nwant %v", n, got[:3], want[:3])
		}
		if sh.Len() != single.Len() {
			t.Fatalf("%d-way Len %d, want %d", n, sh.Len(), single.Len())
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedRoutingStableAcrossReopen: every key lands on the same shard
// on reopen, Get/Lookup resolve through routing, and the listing is
// byte-stable.
func TestShardedRoutingStableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	sh, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := fillStore(t, sh, 40)
	want := listing(sh)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	sh2, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	if got := listing(sh2); !reflect.DeepEqual(got, want) {
		t.Fatal("listing changed across reopen")
	}
	for _, rec := range recs {
		raw, ok := sh2.Get(rec.Key)
		if !ok || string(raw) != string(rec.Value) {
			t.Fatalf("Get(%s) after reopen: %s, %v", rec.Key, raw, ok)
		}
		if lr := sh2.Lookup(rec.Key); lr == nil || lr.Benchmark != rec.Benchmark {
			t.Fatalf("Lookup(%s) after reopen: %+v", rec.Key, lr)
		}
	}
	// The shard layout on disk is the documented shard-NN scheme.
	for i := range 4 {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%02d", i))); err != nil {
			t.Fatalf("shard directory missing: %v", err)
		}
	}
}

// TestShardedCompactionAndFootprint: Compact retires every shard's dead
// segments into snapshots, the footprint shrinks or holds, and CompactIfOver
// honours the per-shard budget split.
func TestShardedCompactionAndFootprint(t *testing.T) {
	sh, err := OpenSharded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	recs := fillStore(t, sh, 40)
	// Overwrite everything once: half the segment lines are now dead.
	for _, rec := range recs {
		rec.Value = json.RawMessage(`{"i":-1}`)
		if err := sh.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	before, err := sh.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 {
		t.Fatalf("footprint %d before compaction", before)
	}
	if err := sh.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := sh.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compaction grew the store: %d -> %d bytes", before, after)
	}
	// Each shard is now exactly one snapshot file.
	if sh.Segments() != 4 {
		t.Fatalf("%d backing files after compaction, want 4 snapshots", sh.Segments())
	}
	if sh.Len() != 40 {
		t.Fatalf("Len %d after compaction, want 40", sh.Len())
	}

	// A generous bound leaves the store alone; a 1-byte bound compacts.
	if compacted, err := sh.CompactIfOver(after * 100); err != nil || compacted {
		t.Fatalf("CompactIfOver(generous): %v, %v", compacted, err)
	}
	fillStore(t, sh, 40) // re-dirty with overwrites
	if compacted, err := sh.CompactIfOver(4); err != nil || !compacted {
		t.Fatalf("CompactIfOver(tiny): %v, %v", compacted, err)
	}
}

// TestShardedValidation: shard counts outside 1..16 are rejected, empty
// keys fail, and a partial open failure closes what it opened.
func TestShardedValidation(t *testing.T) {
	for _, n := range []int{0, -1, 17} {
		if _, err := OpenSharded(t.TempDir(), n); err == nil {
			t.Fatalf("OpenSharded(%d) accepted", n)
		}
		if _, err := Sharded(make([]CellStore, max(n, 0))); err == nil {
			t.Fatalf("Sharded with %d shards accepted", n)
		}
	}
	sh, err := OpenSharded(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := sh.Put(Record{Key: ""}); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestGetDecoded: a plain and a sharded store decode on every call, with
// the CellStore contract for a missing key, a payload that does not decode
// and a hit.
func TestGetDecoded(t *testing.T) {
	single, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := OpenSharded(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for name, st := range map[string]CellStore{"single": single, "sharded": sharded} {
		for key, raw := range map[string]string{"good": `{"ns":1}`, "bad": `"not a map"`} {
			if err := st.Put(Record{Key: key, Benchmark: "crc", Size: "tiny", Device: "d", Schema: 1, Value: json.RawMessage(raw)}); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok, err := st.GetDecoded("missing", decodeMap); v != nil || ok || err != nil {
			t.Fatalf("%s: missing key = %v, %v, %v; want nil, false, nil", name, v, ok, err)
		}
		if v, ok, err := st.GetDecoded("bad", decodeMap); v != nil || ok || err == nil {
			t.Fatalf("%s: undecodable payload = %v, %v, %v; want nil, false, an error", name, v, ok, err)
		}
		v1, ok, err := st.GetDecoded("good", decodeMap)
		if !ok || err != nil || v1.(map[string]float64)["ns"] != 1 {
			t.Fatalf("%s: hit = %v, %v, %v", name, v1, ok, err)
		}
		// Uncached stores decode afresh: each hit is a private copy.
		v2, _, _ := st.GetDecoded("good", decodeMap)
		v2.(map[string]float64)["ns"] = 2
		if v1.(map[string]float64)["ns"] != 1 {
			t.Fatalf("%s: two hits share one decoded value", name)
		}
	}
}
