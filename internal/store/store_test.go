package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func put(t *testing.T, s *Store, key, bench, size, dev string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Key: key, Benchmark: bench, Size: size, Device: dev, Schema: 1, Value: raw}); err != nil {
		t.Fatal(err)
	}
}

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

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "k1", "crc", "tiny", "gtx1080", map[string]float64{"ns": 42.5})
	put(t, s, "k2", "fft", "small", "i7-6700k", map[string]float64{"ns": 7})
	if err := s.Put(Record{Key: ""}); err == nil {
		t.Fatal("empty key accepted")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := s2.Get("k1")
	if !ok {
		t.Fatal("k1 missing after reopen")
	}
	var got map[string]float64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["ns"] != 42.5 {
		t.Fatalf("k1 value = %v", got)
	}
	if _, ok := s2.Get("nope"); ok {
		t.Fatal("phantom key")
	}
}

func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "k", "crc", "tiny", "gtx1080", 1)
	put(t, s, "k", "crc", "tiny", "gtx1080", 2)
	if raw, _ := s.Get("k"); string(raw) != "2" {
		t.Fatalf("in-process value %s, want 2", raw)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := s2.Get("k"); string(raw) != "2" {
		t.Fatalf("replayed value %s, want 2", raw)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	// Two writer generations → two segments.
	for gen := 0; gen < 2; gen++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		put(t, s, fmt.Sprintf("k%d", gen), "crc", "tiny", "gtx1080", gen)
		put(t, s, "shared", "fft", "tiny", "gtx1080", gen)
		s.Close()
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 2 {
		t.Fatalf("Segments = %d, want 2", s.Segments())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 1 {
		t.Fatalf("Segments after compact = %d, want 1 snapshot", s.Segments())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 0 {
		t.Fatalf("segments left after compact: %v", segs)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len after compact = %d, want 3", s2.Len())
	}
	if raw, _ := s2.Get("shared"); string(raw) != "1" {
		t.Fatalf("shared = %s after compact, want last write 1", raw)
	}
	// A store stays writable after compaction.
	put(t, s2, "post", "nw", "tiny", "k20m", 9)
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s3.Len())
	}
}

// TestCompactionAndFootprint: Compact retires dead segment lines so the
// footprint shrinks while the listing holds, and CompactIfOver leaves a
// store under its bound alone but compacts one over it.
func TestCompactionAndFootprint(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := fillStore(t, s, 40)
	// Overwrite everything once: half the segment lines are now dead.
	for _, rec := range recs {
		rec.Value = json.RawMessage(`{"i":-1}`)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := listing(s)
	before, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 {
		t.Fatalf("footprint %d before compaction", before)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compaction grew the store: %d -> %d bytes", before, after)
	}
	if got := listing(s); !reflect.DeepEqual(got, want) {
		t.Fatal("listing changed across compaction")
	}

	// A generous bound leaves the store alone; a tiny bound compacts.
	if compacted, err := s.CompactIfOver(after * 100); err != nil || compacted {
		t.Fatalf("CompactIfOver(generous): %v, %v", compacted, err)
	}
	fillStore(t, s, 40) // re-dirty with overwrites
	if compacted, err := s.CompactIfOver(4); err != nil || !compacted {
		t.Fatalf("CompactIfOver(tiny): %v, %v", compacted, err)
	}
}

// TestOpenRefusesShardedLayout: a directory in the retired shard-NN layout
// fails Open with an error naming the layout, instead of opening as an
// empty store whose cells all sit unread in the subdirectories.
func TestOpenRefusesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shard-00"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a sharded layout")
	}
	if !strings.Contains(err.Error(), "sharded layout") || !strings.Contains(err.Error(), "shard-00") {
		t.Fatalf("error does not name the layout: %v", err)
	}
}

// TestGetDecoded: a plain store decodes on every call, with the CellStore
// contract for a missing key, a payload that does not decode and a hit.
func TestGetDecoded(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for key, raw := range map[string]string{"good": `{"ns":1}`, "bad": `"not a map"`} {
		if err := st.Put(Record{Key: key, Benchmark: "crc", Size: "tiny", Device: "d", Schema: 1, Value: json.RawMessage(raw)}); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok, err := st.GetDecoded("missing", decodeMap); v != nil || ok || err != nil {
		t.Fatalf("missing key = %v, %v, %v; want nil, false, nil", v, ok, err)
	}
	if v, ok, err := st.GetDecoded("bad", decodeMap); v != nil || ok || err == nil {
		t.Fatalf("undecodable payload = %v, %v, %v; want nil, false, an error", v, ok, err)
	}
	v1, ok, err := st.GetDecoded("good", decodeMap)
	if !ok || err != nil || v1.(map[string]float64)["ns"] != 1 {
		t.Fatalf("hit = %v, %v, %v", v1, ok, err)
	}
	// An uncached store decodes afresh: each hit is a private copy.
	v2, _, _ := st.GetDecoded("good", decodeMap)
	v2.(map[string]float64)["ns"] = 2
	if v1.(map[string]float64)["ns"] != 1 {
		t.Fatal("two hits share one decoded value")
	}
}

func TestTornTailLineIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "good", "crc", "tiny", "gtx1080", 1)
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: valid prefix, no trailing newline.
	if _, err := f.WriteString(`{"key":"torn","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn record resurrected")
	}
}

// TestCrashTruncationRecovery injects a crash at every possible byte
// offset of a segment: however much of the file survives, Open must
// recover exactly the records whose full line (including the trailing
// newline) made it to disk — the acked prefix — and drop the torn tail
// without erroring. This is the disk half of the harness's
// persist-before-announce contract: a cell whose completion event was
// observed has its full line written, so it is in the recovered prefix.
func TestCrashTruncationRecovery(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "crc", "tiny", fmt.Sprintf("dev%d", i), i)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(src, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := 0 // records whose full line fits in data[:cut]
		for _, b := range data[:cut] {
			if b == '\n' {
				complete++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d/%d: open failed: %v", cut, len(data), err)
		}
		if s2.Len() != complete {
			t.Fatalf("cut at byte %d/%d: recovered %d records, want the %d complete lines",
				cut, len(data), s2.Len(), complete)
		}
		for i := 0; i < complete; i++ {
			if _, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("cut at byte %d: acked record k%d lost", cut, i)
			}
		}
		// A recovered store accepts writes again: the re-sweep path.
		put(t, s2, "resweep", "fft", "tiny", "dev0", 1)
		s2.Close()
	}
}

func TestCorruptInteriorLineIsAnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.jsonl")
	if err := os.WriteFile(path, []byte("not json\n{\"key\":\"k\",\"value\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt interior line silently accepted")
	}
}

func TestRecordsOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "3", "fft", "tiny", "gtx1080", 0)
	put(t, s, "1", "crc", "tiny", "i7-6700k", 0)
	put(t, s, "2", "crc", "tiny", "gtx1080", 0)
	recs := s.Records()
	got := ""
	for _, r := range recs {
		got += r.Benchmark + "/" + r.Device + " "
	}
	want := "crc/gtx1080 crc/i7-6700k fft/gtx1080 "
	if got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, keys = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				// Overlapping key space across writers.
				key := fmt.Sprintf("k%d", k)
				put(t, s, key, "crc", "tiny", "gtx1080", w)
				if _, ok := s.Get(key); !ok {
					t.Errorf("key %s lost", key)
					return
				}
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
}

// TestConcurrentPutAndCompact: a Put racing a Compact must never be lost —
// each record lands either in the snapshot or in a post-compact segment,
// never in a deleted file only.
func TestConcurrentPutAndCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			put(t, s, fmt.Sprintf("k%d", i), "crc", "tiny", "gtx1080", i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != n {
		t.Fatalf("Len after reopen = %d, want %d — records lost across compaction", s2.Len(), n)
	}
}

func TestFingerprintDeterminismAndSensitivity(t *testing.T) {
	type opts struct {
		Samples int
		Seed    int64
	}
	a := Fingerprint("cell", 1, "crc", "tiny", opts{8, 1})
	b := Fingerprint("cell", 1, "crc", "tiny", opts{8, 1})
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("fingerprint length %d, want 32 hex chars", len(a))
	}
	distinct := map[string]bool{a: true}
	for _, other := range []string{
		Fingerprint("cell", 2, "crc", "tiny", opts{8, 1}),  // schema bump
		Fingerprint("cell", 1, "fft", "tiny", opts{8, 1}),  // benchmark
		Fingerprint("cell", 1, "crc", "small", opts{8, 1}), // size
		Fingerprint("cell", 1, "crc", "tiny", opts{16, 1}), // options
		Fingerprint("cell", 1, "crc", "tiny", opts{8, 2}),  // seed
		Fingerprint("cell", 1, "crcti", "ny", opts{8, 1}),  // part-boundary shift
	} {
		if distinct[other] {
			t.Fatalf("fingerprint collision: %s", other)
		}
		distinct[other] = true
	}
}
