package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// newTestServer sweeps a tiny grid into a fresh store and serves it — the
// same pipeline as `dwarfsweep -store` followed by `dwarfserve -store`: the
// store sits behind the slot cache, and the server loads its own snapshot.
func newTestServer(t *testing.T) (*server, *harness.Grid) {
	t.Helper()
	base, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := store.Cached(base)
	t.Cleanup(func() { st.Close() })
	opt := harness.DefaultOptions()
	opt.Samples = 6
	g, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080"},
		Options:    opt,
		Workers:    2,
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := predict.DefaultConfig()
	cfg.Trees = 20 // keep the /v1/predict test fast
	srv, err := newServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, g
}

func get(t *testing.T, srv *server, url string, wantCode int) map[string]any {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d (body %s), want %d", url, rec.Code, rec.Body, wantCode)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: invalid JSON %q: %v", url, rec.Body, err)
	}
	return body
}

func TestHealthz(t *testing.T) {
	srv, g := newTestServer(t)
	body := get(t, srv, "/healthz", http.StatusOK)
	if body["status"] != "ok" {
		t.Fatalf("status %v", body["status"])
	}
	// /healthz is pure liveness; the counters live in /v1/status.
	if _, has := body["cells"]; has {
		t.Fatalf("healthz still reports cells: %v", body)
	}
	status := get(t, srv, "/v1/status", http.StatusOK)
	if int(status["cells"].(float64)) != g.Cells() {
		t.Fatalf("status cells %v, want %d", status["cells"], g.Cells())
	}
	for _, key := range []string{"version", "go_version", "vcs_revision"} {
		if v, _ := status[key].(string); v == "" {
			t.Fatalf("status %s missing: %v", key, status)
		}
	}
	if status["uptime_ms"].(float64) < 0 {
		t.Fatalf("negative uptime %v", status["uptime_ms"])
	}
	if int(status["jobs_running"].(float64)) != 0 || int(status["jobs"].(float64)) != 0 {
		t.Fatalf("fresh server reports jobs: %v", status)
	}
}

func TestCellsFilter(t *testing.T) {
	srv, _ := newTestServer(t)

	all := get(t, srv, "/v1/cells", http.StatusOK)
	if int(all["total"].(float64)) != 4 {
		t.Fatalf("unfiltered total %v, want 4", all["total"])
	}
	if n := len(all["items"].([]any)); n != 4 {
		t.Fatalf("%d items, want 4", n)
	}
	if all["next_cursor"] != "" {
		t.Fatalf("single-page listing has next_cursor %v", all["next_cursor"])
	}

	one := get(t, srv, "/v1/cells?bench=fft&size=tiny&device=gtx1080", http.StatusOK)
	if int(one["total"].(float64)) != 1 {
		t.Fatalf("filtered total %v, want 1", one["total"])
	}
	cell := one["items"].([]any)[0].(map[string]any)
	if cell["benchmark"] != "fft" || cell["device"] != "gtx1080" {
		t.Fatalf("wrong cell %v", cell)
	}
	if cell["median_ns"].(float64) <= 0 {
		t.Fatalf("non-positive median %v", cell["median_ns"])
	}

	none := get(t, srv, "/v1/cells?bench=nosuch", http.StatusOK)
	if int(none["total"].(float64)) != 0 {
		t.Fatalf("phantom cells %v", none["total"])
	}
}

// TestCellsPagination walks the 4-cell snapshot one cell at a time through
// the cursor, checks the pages tile the full listing exactly, and verifies
// limit/cursor validation and that the retired ?legacy=1 flag is ignored.
func TestCellsPagination(t *testing.T) {
	srv, _ := newTestServer(t)

	var paged []any
	cursor, pages := "", 0
	for {
		url := "/v1/cells?limit=1"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		body := get(t, srv, url, http.StatusOK)
		if int(body["total"].(float64)) != 4 {
			t.Fatalf("page total %v, want 4 on every page", body["total"])
		}
		items := body["items"].([]any)
		if len(items) != 1 {
			t.Fatalf("page of %d items, want 1", len(items))
		}
		paged = append(paged, items...)
		pages++
		if pages > 8 {
			t.Fatal("cursor loop does not terminate")
		}
		if cursor = body["next_cursor"].(string); cursor == "" {
			break
		}
	}
	if pages != 4 {
		t.Fatalf("walked %d pages, want 4", pages)
	}

	// The concatenated pages are exactly the unpaginated listing.
	all := get(t, srv, "/v1/cells", http.StatusOK)
	want, _ := json.Marshal(all["items"])
	got, _ := json.Marshal(paged)
	if string(got) != string(want) {
		t.Fatalf("paged items differ from full listing:\npaged: %s\nfull:  %s", got, want)
	}

	// The pre-pagination shape is gone: ?legacy=1 gets the envelope.
	if legacy := getRaw(t, srv, "/v1/cells?legacy=1"); legacy != getRaw(t, srv, "/v1/cells") {
		t.Fatalf("?legacy=1 answered %s, want the paginated envelope", legacy)
	}

	get(t, srv, "/v1/cells?limit=0", http.StatusBadRequest)
	get(t, srv, "/v1/cells?limit=x", http.StatusBadRequest)
	get(t, srv, "/v1/cells?cursor=%25not-base64", http.StatusBadRequest)
}

func TestGrid(t *testing.T) {
	srv, _ := newTestServer(t)
	body := get(t, srv, "/v1/grid", http.StatusOK)
	if int(body["count"].(float64)) != 4 {
		t.Fatalf("count %v, want 4", body["count"])
	}
	if n := len(body["benchmarks"].([]any)); n != 2 {
		t.Fatalf("%d benchmarks, want 2", n)
	}
	if n := len(body["devices"].([]any)); n != 2 {
		t.Fatalf("%d devices, want 2", n)
	}
}

func TestPredictMeasuredAndUnmeasured(t *testing.T) {
	srv, g := newTestServer(t)

	// A measured cell: prediction plus the stored actual.
	body := get(t, srv, "/v1/predict?bench=fft&size=tiny&device=gtx1080", http.StatusOK)
	if body["measured"] != true {
		t.Fatalf("measured = %v", body["measured"])
	}
	pred := body["predicted_ns"].(float64)
	actual := body["actual_ns"].(float64)
	if pred <= 0 || actual <= 0 {
		t.Fatalf("pred %v actual %v", pred, actual)
	}
	want := g.Find("fft", "tiny", "gtx1080").Kernel.Median
	if actual != want {
		t.Fatalf("actual_ns %v, want stored median %v", actual, want)
	}

	// A device the benchmark never ran on: catalogue spec + stored AIWC
	// profiles still yield a prediction.
	body = get(t, srv, "/v1/predict?bench=fft&size=tiny&device=k20m", http.StatusOK)
	if body["measured"] != false {
		t.Fatalf("measured = %v for unmeasured device", body["measured"])
	}
	if body["predicted_ns"].(float64) <= 0 {
		t.Fatalf("predicted_ns %v", body["predicted_ns"])
	}
	if _, has := body["actual_ns"]; has {
		t.Fatal("actual_ns present for unmeasured cell")
	}

	// Unknown workload or device → 404 with a useful message.
	get(t, srv, "/v1/predict?bench=lud&size=tiny&device=gtx1080", http.StatusNotFound)
	get(t, srv, "/v1/predict?bench=fft&size=tiny&device=gtx1081", http.StatusNotFound)
	// Missing parameters → 400.
	get(t, srv, "/v1/predict?bench=fft", http.StatusBadRequest)
}

// postJob submits a job and returns its ID.
func postJob(t *testing.T, srv *server, body string, wantCode int) string {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST /v1/jobs: status %d (body %s), want %d", rec.Code, rec.Body, wantCode)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST /v1/jobs: invalid JSON %q: %v", rec.Body, err)
	}
	id, _ := resp["id"].(string)
	return id
}

// waitJob polls the status endpoint until the job leaves the running state.
func waitJob(t *testing.T, srv *server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body := get(t, srv, "/v1/jobs/"+id, http.StatusOK)
		if body["state"] != string(jobRunning) {
			return body
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return nil
}

// TestJobSweepRoundTrip is the async acceptance path: a job extends the
// store with a new device, SSE delivers its per-cell events live, and the
// resulting /v1/grid is byte-for-byte what a synchronous sweep of the same
// selection serves.
func TestJobSweepRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t) // crc,fft × tiny × i7-6700k,gtx1080 = 4 cells

	// A live SSE follower attached before the job exists would 404; attach
	// right after submit, while the job runs, and follow it to the end.
	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","gtx1080","k20m"],"samples":6}`,
		http.StatusAccepted)
	if id == "" {
		t.Fatal("job submission returned no id")
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	sse, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if got := sse.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("SSE content type %q", got)
	}
	var kinds []string
	var lastData string
	scanner := bufio.NewScanner(sse.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	// The stream must end by itself after the terminal event.
	if len(kinds) == 0 || kinds[len(kinds)-1] != "grid_done" {
		t.Fatalf("SSE kinds %v: want a trailing grid_done", kinds)
	}
	cellEvents := 0
	for _, k := range kinds {
		if k == "cell_done" || k == "store_hit" {
			cellEvents++
		}
	}
	if cellEvents != 6 {
		t.Fatalf("%d completion events over SSE, want 6", cellEvents)
	}
	var terminal map[string]any
	if err := json.Unmarshal([]byte(lastData), &terminal); err != nil {
		t.Fatalf("terminal SSE data %q: %v", lastData, err)
	}
	if terminal["state"] != string(jobDone) {
		t.Fatalf("terminal event state %v", terminal["state"])
	}
	// 4 cells pre-existed (store hits), k20m's 2 were measured.
	if terminal["store_hits"].(float64) != 4 || terminal["store_misses"].(float64) != 2 {
		t.Fatalf("terminal hits/misses %v/%v, want 4/2", terminal["store_hits"], terminal["store_misses"])
	}

	status := waitJob(t, srv, id)
	if status["state"] != string(jobDone) {
		t.Fatalf("job state %v, want done: %v", status["state"], status)
	}
	if status["done"].(float64) != 6 || status["total"].(float64) != 6 {
		t.Fatalf("job progress %v/%v, want 6/6", status["done"], status["total"])
	}

	// The query snapshot was reloaded: 6 cells served.
	if body := get(t, srv, "/v1/status", http.StatusOK); int(body["cells"].(float64)) != 6 {
		t.Fatalf("cells after job %v, want 6", body["cells"])
	}

	// Byte-for-byte: a synchronous sweep of the same selection into a
	// fresh store serves an identical /v1/grid.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := harness.DefaultOptions()
	opt.Samples = 6
	if _, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    opt,
		Workers:    2,
		Store:      st2,
	}); err != nil {
		t.Fatal(err)
	}
	syncSrv, err := newServer(st2, predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	rawAsync := getRaw(t, srv, "/v1/grid")
	rawSync := getRaw(t, syncSrv, "/v1/grid")
	if rawAsync != rawSync {
		t.Fatalf("async and sync /v1/grid differ:\nasync: %s\nsync:  %s", rawAsync, rawSync)
	}
}

func getRaw(t *testing.T, srv *server, url string) string {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, rec.Code)
	}
	return rec.Body.String()
}

// TestJobCancel cancels a large job mid-flight: the job settles in a
// terminal state, the store agrees exactly with the reported progress, and
// the query snapshot serves the completed cells.
func TestJobCancel(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(st, predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The full suite across all sizes on two devices: large enough that
	// the DELETE lands long before completion.
	id := postJob(t, srv, `{"devices":["i7-6700k","gtx1080"],"samples":6}`, http.StatusAccepted)
	req := httptest.NewRequest("DELETE", "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", rec.Code)
	}

	status := waitJob(t, srv, id)
	state := status["state"].(string)
	if state != string(jobCancelled) && state != string(jobDone) {
		t.Fatalf("cancelled job settled as %q", state)
	}
	done := int(status["done"].(float64))
	if state == string(jobCancelled) && done >= int(status["total"].(float64)) {
		t.Fatal("cancelled job claims full completion")
	}
	// Lossless shutdown: every completed cell is in the store, and the
	// reloaded snapshot serves exactly those.
	if st.Len() != done {
		t.Fatalf("store holds %d cells, job reported %d completed", st.Len(), done)
	}
	if body := get(t, srv, "/v1/status", http.StatusOK); int(body["cells"].(float64)) != done {
		t.Fatalf("snapshot serves %v cells, want %d", body["cells"], done)
	}
}

// TestJobValidationAndLookups: bad selections fail at submit time with no
// job registered; unknown job IDs 404.
func TestJobValidationAndLookups(t *testing.T) {
	srv, _ := newTestServer(t)
	postJob(t, srv, `{"benchmarks":["nosuch"]}`, http.StatusBadRequest)
	postJob(t, srv, `{not json`, http.StatusBadRequest)
	if body := get(t, srv, "/v1/jobs", http.StatusOK); int(body["count"].(float64)) != 0 {
		t.Fatalf("rejected submissions registered jobs: %v", body)
	}
	get(t, srv, "/v1/jobs/job-999999", http.StatusNotFound)

	req := httptest.NewRequest("DELETE", "/v1/jobs/job-999999", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d", rec.Code)
	}
}

// TestShutdownCancelsJobs: shutdownJobs() drives running jobs to a
// terminal state and new submissions are rejected while draining.
func TestShutdownCancelsJobs(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(st, predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := postJob(t, srv, `{"devices":["i7-6700k","gtx1080"],"samples":6}`, http.StatusAccepted)

	srv.shutdownJobs() // blocks until the job settles

	body := get(t, srv, "/v1/jobs/"+id, http.StatusOK)
	if body["state"] == string(jobRunning) {
		t.Fatalf("job still running after shutdownJobs: %v", body)
	}
	if st.Len() != int(body["done"].(float64)) {
		t.Fatalf("store holds %d cells, job completed %v — shutdown lost cells", st.Len(), body["done"])
	}
	postJob(t, srv, `{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k"]}`, http.StatusServiceUnavailable)
}

// postSchedule POSTs a /v1/schedule body and decodes the response.
func postSchedule(t *testing.T, srv *server, body string, wantCode int) map[string]any {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST /v1/schedule: status %d (body %s), want %d", rec.Code, rec.Body, wantCode)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST /v1/schedule: invalid JSON %q: %v", rec.Body, err)
	}
	return resp
}

// TestScheduleEndpoint: a workload over a fleet wider than the store's
// measurements schedules with predicted slots flagged; after a job measures
// the missing device the same request resolves fully measured — the
// predict-only versus after-measurement round trip of the CI store-smoke.
func TestScheduleEndpoint(t *testing.T) {
	srv, _ := newTestServer(t) // crc,fft × tiny × i7-6700k,gtx1080 measured
	reqBody := `{"tasks":[{"benchmark":"fft","size":"tiny","count":2},{"benchmark":"crc","size":"tiny"}],
		"devices":["i7-6700k","gtx1080","k20m"],"policy":"heft"}`

	body := postSchedule(t, srv, reqBody, http.StatusOK)
	if body["policy"] != "heft" || int(body["tasks"].(float64)) != 3 {
		t.Fatalf("schedule header wrong: %v", body)
	}
	if body["makespan_ms"].(float64) <= 0 {
		t.Fatalf("non-positive makespan: %v", body["makespan_ms"])
	}
	if len(body["slots"].([]any)) != 3 {
		t.Fatalf("%d slots, want 3", len(body["slots"].([]any)))
	}
	measuredBefore := int(body["measured"].(float64))
	if int(body["predicted"].(float64))+measuredBefore != 3 {
		t.Fatalf("source counts do not add up: %v", body)
	}

	// Measure k20m, then every (task, device) cell of the fleet is stored:
	// the same schedule request must resolve with zero predictions.
	id := postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["k20m"],"samples":6}`, http.StatusAccepted)
	waitJob(t, srv, id)
	body = postSchedule(t, srv, reqBody, http.StatusOK)
	if int(body["predicted"].(float64)) != 0 || int(body["measured"].(float64)) != 3 {
		t.Fatalf("after measurement: %v predicted / %v measured, want 0/3", body["predicted"], body["measured"])
	}
	if int(body["training_cells"].(float64)) != 6 {
		t.Fatalf("training_cells %v, want 6 (cost model not regenerated)", body["training_cells"])
	}
}

// TestScheduleEnergyBudget: the energy policy honours an explicit makespan
// budget and reports the energy split.
func TestScheduleEnergyBudget(t *testing.T) {
	srv, _ := newTestServer(t)
	body := postSchedule(t, srv,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":4}],"devices":["i7-6700k","gtx1080"],
		  "policy":"energy","makespan_budget_ms":10000}`,
		http.StatusOK)
	if body["policy"] != "energy" {
		t.Fatalf("policy %v", body["policy"])
	}
	if body["total_energy_j"].(float64) <= 0 {
		t.Fatalf("energy %v", body["total_energy_j"])
	}
}

// TestScheduleValidation is the regression test for the error convention:
// unknown policies list every valid one sorted; malformed workloads name
// the valid benchmarks; unknown devices name the catalogue; rows absent
// from the store 404.
func TestScheduleValidation(t *testing.T) {
	srv, _ := newTestServer(t)

	resp := postSchedule(t, srv,
		`{"tasks":[{"benchmark":"crc","size":"tiny"}],"policy":"quantum"}`, http.StatusBadRequest)
	msg := resp["error"].(string)
	last := -1
	for _, name := range []string{"energy", "fastest-device", "greedy", "heft", "roundrobin"} {
		i := strings.Index(msg, name)
		if i < 0 {
			t.Fatalf("policy error %q does not mention %q", msg, name)
		}
		if i < last {
			t.Fatalf("policy error %q lists policies out of order", msg)
		}
		last = i
	}

	resp = postSchedule(t, srv, `{"tasks":[{"benchmark":"nosuch","size":"tiny"}]}`, http.StatusBadRequest)
	for _, want := range []string{"nosuch", "crc", "fft"} {
		if !strings.Contains(resp["error"].(string), want) {
			t.Fatalf("workload error %q does not mention %q", resp["error"], want)
		}
	}

	resp = postSchedule(t, srv, `{"tasks":[{"benchmark":"crc","size":"tiny"}],"devices":["gtx1081"]}`, http.StatusBadRequest)
	if !strings.Contains(resp["error"].(string), "gtx1080") {
		t.Fatalf("device error %q does not name the catalogue", resp["error"])
	}

	postSchedule(t, srv, `{"tasks":[]}`, http.StatusBadRequest)
	postSchedule(t, srv, `{not json`, http.StatusBadRequest)
	postSchedule(t, srv, `{"tasks":[{"benchmark":"crc","size":"tiny"}],"polcy":"heft"}`, http.StatusBadRequest)

	// srad/tiny is a valid workload but has no stored cells on any device.
	postSchedule(t, srv, `{"tasks":[{"benchmark":"srad","size":"tiny"}]}`, http.StatusNotFound)
}

// TestPredictRetrainsAfterJob: the forest is invalidated when a job adds
// cells — training_cells must track the new snapshot.
func TestPredictRetrainsAfterJob(t *testing.T) {
	srv, _ := newTestServer(t)
	body := get(t, srv, "/v1/predict?bench=fft&size=tiny&device=gtx1080", http.StatusOK)
	if int(body["training_cells"].(float64)) != 4 {
		t.Fatalf("training_cells %v, want 4", body["training_cells"])
	}
	id := postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["k20m"],"samples":6}`, http.StatusAccepted)
	waitJob(t, srv, id)
	body = get(t, srv, "/v1/predict?bench=fft&size=tiny&device=k20m", http.StatusOK)
	if body["measured"] != true {
		t.Fatalf("k20m cell not measured after job: %v", body)
	}
	if int(body["training_cells"].(float64)) != 6 {
		t.Fatalf("training_cells after job %v, want 6 (forest not retrained)", body["training_cells"])
	}
}

// TestMetricsSlotcacheAgreesWithEvents is the acceptance check for the
// zero-copy read path's observability: the slotcache_* counters on /metrics
// move in lockstep with the job event stream. The arithmetic is exact —
// the startup snapshot decodes each of the 4 cells once (4 misses), a job
// over the same selection store-hits all 4 through the slot cache and its
// post-job reload hits them again, so hits = 2 × the job's store_hits and
// no evictions ever fire (nothing was overwritten).
func TestMetricsSlotcacheAgreesWithEvents(t *testing.T) {
	srv, g := newTestServer(t)

	metrics := func() map[string]int {
		raw := getRaw(t, srv, "/metrics")
		out := map[string]int{}
		for _, line := range strings.Split(raw, "\n") {
			var name string
			var v int
			if n, _ := fmt.Sscanf(line, "slotcache_%s %d", &name, &v); n == 2 {
				out["slotcache_"+name] = v
			}
		}
		return out
	}

	m := metrics()
	if m["slotcache_misses_total"] != g.Cells() || m["slotcache_hits_total"] != 0 {
		t.Fatalf("startup metrics %v, want %d misses / 0 hits", m, g.Cells())
	}

	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","gtx1080"],"samples":6}`,
		http.StatusAccepted)
	status := waitJob(t, srv, id)
	if status["state"] != string(jobDone) {
		t.Fatalf("job state %v", status["state"])
	}
	hits := int(status["store_hits"].(float64))
	if hits != g.Cells() {
		t.Fatalf("job store_hits %d, want %d", hits, g.Cells())
	}

	m = metrics()
	if m["slotcache_hits_total"] != 2*hits {
		t.Fatalf("slotcache_hits_total %d, want %d (job %d + reload %d)",
			m["slotcache_hits_total"], 2*hits, hits, hits)
	}
	if m["slotcache_misses_total"] != g.Cells() {
		t.Fatalf("slotcache_misses_total %d changed after an all-hit job, want %d",
			m["slotcache_misses_total"], g.Cells())
	}
	if m["slotcache_evictions_total"] != 0 {
		t.Fatalf("slotcache_evictions_total %d with nothing overwritten", m["slotcache_evictions_total"])
	}
}
