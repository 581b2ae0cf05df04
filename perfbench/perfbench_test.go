package main

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/sim"
)

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

// paperGrid fakes a clean 615-cell sweep: only the fields checkSweep reads.
func paperGrid() *harness.Grid {
	g := &harness.Grid{}
	dev := sim.Devices()[0]
	for i := range paperCells {
		g.Measurements = append(g.Measurements, &harness.Measurement{
			Benchmark: "crc", Size: "tiny", Device: dev, Functional: i%2 == 0, Verified: i%2 == 0,
		})
	}
	return g
}

func TestCheckSweepCatchesCorruptGrid(t *testing.T) {
	if err := checkSweep(paperGrid()); err != nil {
		t.Fatalf("clean grid: %v", err)
	}
	corrupt := map[string]func(*harness.Grid){
		"unverified functional cell": func(g *harness.Grid) { g.Measurements[10].Verified = false },
		"missing cell":               func(g *harness.Grid) { g.Measurements = g.Measurements[1:] },
		"failed cell":                func(g *harness.Grid) { g.Failed = append(g.Failed, harness.FailedCell{Reason: "boom"}) },
	}
	for name, f := range corrupt {
		g := paperGrid()
		f(g)
		if err := checkSweep(g); !isCheckError(err) {
			t.Errorf("%s: checkSweep = %v, want a check failure", name, err)
		}
	}
}

// TestStoreRoundTripCatchesCorruptResweep runs a real round trip on a small
// grid, then corrupts one sample of a re-swept cell: the export check must
// reject it.
func TestStoreRoundTripCatchesCorruptResweep(t *testing.T) {
	ctx := context.Background()
	reg, spec := sweepSetup()
	spec.Benchmarks, spec.Sizes, spec.Devices = []string{"crc", "kmeans"}, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}
	spec.Options.Samples = 6
	g, err := harness.RunGrid(ctx, reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := gridDigest(g)
	if err != nil {
		t.Fatal(err)
	}
	grids := []inputGrid{{spec: spec, grid: g, digest: digest}}
	r := newResult()
	if _, err := storeRoundTrip(ctx, reg, filepath.Join(t.TempDir(), "rt"), grids, 0, r); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("round trip counted %d failed of %d", r.Failed, r.Attempted)
	}

	re := *g
	re.StoreHits = g.Cells()
	re.Measurements = append([]*harness.Measurement(nil), g.Measurements...)
	if err := checkResweep(&re, g.Cells(), digest); err != nil {
		t.Fatalf("identical re-sweep: %v", err)
	}
	m := *re.Measurements[1]
	m.KernelNs = append([]float64(nil), m.KernelNs...)
	m.KernelNs[0] = math.Nextafter(m.KernelNs[0], math.Inf(1))
	re.Measurements[1] = &m
	if err := checkResweep(&re, g.Cells(), digest); !isCheckError(err) {
		t.Fatalf("re-sweep with one corrupted sample: %v, want a check failure", err)
	}
	re.StoreHits--
	re.StoreMisses++
	if err := checkResweep(&re, g.Cells(), digest); !isCheckError(err) {
		t.Fatalf("re-sweep with a miss: %v, want a check failure", err)
	}
}

func TestCheckJobCatchesMiss(t *testing.T) {
	done := "id: 0\nevent: store_hit\ndata: {\"kind\":\"store_hit\"}\n\n" +
		"id: 1\nevent: grid_done\ndata: {\"kind\":\"grid_done\",\"state\":\"done\",\"store_hits\":1,\"store_misses\":0}\n\n"
	if err := checkJob([]byte(done)); err != nil {
		t.Fatalf("all-hit job: %v", err)
	}
	missed := "id: 0\nevent: grid_done\ndata: {\"kind\":\"grid_done\",\"state\":\"done\",\"store_hits\":0,\"store_misses\":1}\n\n"
	if err := checkJob([]byte(missed)); !isCheckError(err) {
		t.Fatalf("job that missed the store: %v, want a check failure", err)
	}
}

func TestSameAnswerCatchesChangedPrediction(t *testing.T) {
	r := newResult()
	var first string
	a := predictedNs([]byte(`{"benchmark":"fft","predicted_ns":12345.678901234567}`))
	if a != "12345.678901234567" {
		t.Fatalf("predictedNs = %q", a)
	}
	for range 2 {
		if err := sameAnswer("predict", &first, a, r); err != nil {
			t.Fatalf("same answer twice: %v", err)
		}
	}
	b := predictedNs([]byte(`{"predicted_ns":12345.678901234569}`))
	if err := sameAnswer("predict", &first, b, r); !isCheckError(err) {
		t.Fatalf("a different prediction: %v, want a check failure", err)
	}
	if r.Attempted != 3 || r.Failed != 1 {
		t.Fatalf("counted %d failed of %d, want 1 of 3", r.Failed, r.Attempted)
	}
}

func TestSelfTimesSubtractsOverlappingChildren(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "grid", StartNs: 0, DurNs: 100},
		{ID: 2, Parent: 1, Name: "cell", StartNs: 10, DurNs: 50}, // 10..60
		{ID: 3, Parent: 1, Name: "cell", StartNs: 40, DurNs: 40}, // 40..80, overlaps
		{ID: 4, Parent: 2, Name: "prepare", StartNs: 10, DurNs: 30},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.name] = lt
	}
	want := map[string][3]int64{"grid": {1, 100, 30}, "cell": {2, 90, 60}, "prepare": {1, 30, 30}}
	for name, w := range want {
		lt := got[name]
		if int64(lt.count) != w[0] || lt.totalNs != w[1] || lt.self != w[2] {
			t.Errorf("%s: count %d total %d self %d, want %v", name, lt.count, lt.totalNs, lt.self, w)
		}
	}
}

func TestReadSpansAndPrepareWait(t *testing.T) {
	tr := obs.NewTracer()
	ctx := context.Background()
	for _, dev := range []string{"a", "b"} {
		cctx, cell := tr.StartSpan(ctx, "harness.cell", obs.String("benchmark", "crc"), obs.String("size", "tiny"), obs.String("device", dev))
		_, p := tr.StartSpan(cctx, "harness.prepare")
		p.End()
		cell.End()
	}
	spans, err := readSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("read %d spans, want 4", len(spans))
	}
	var shorter int64 = math.MaxInt64
	for _, s := range spans {
		if s.Name == "harness.prepare" {
			shorter = min(shorter, s.DurNs)
		}
	}
	if got := prepareWait(spans); got != shorter {
		t.Fatalf("prepareWait = %d, want the shorter prepare span %d", got, shorter)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if _, ok := p99(xs); ok {
		t.Fatal("p99 of 4 samples reported")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if v, ok := p99(big); !ok || math.Abs(v-989.01) > 1e-9 {
		t.Fatalf("p99 = %v, %v", v, ok)
	}
}

func TestDatasetSeedsDistinctAndPositive(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for stream := range 4 {
			for i := range 8 {
				s := datasetSeed(seed, stream, i)
				if s <= 0 || seen[s] {
					t.Fatalf("datasetSeed(%d,%d,%d) = %d: non-positive or repeated", seed, stream, i, s)
				}
				seen[s] = true
			}
		}
	}
	if datasetSeed(7, 1, 2) != datasetSeed(7, 1, 2) {
		t.Fatal("datasetSeed is not a function of its arguments")
	}
}
