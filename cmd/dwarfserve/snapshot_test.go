package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// serveRaw runs one request through the server and returns its status and
// body; unlike get it is safe to call from any goroutine.
func serveRaw(srv *server, method, url, body string) (int, string) {
	req := httptest.NewRequest(method, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

const (
	snapPredictURL = "/v1/predict?bench=fft&size=tiny&device=titanx"
	snapSchedule   = `{"tasks":[{"benchmark":"fft","size":"tiny","count":2},{"benchmark":"crc","size":"tiny"}],
		"devices":["i7-6700k","gtx1080","k20m","titanx"],"policy":"heft"}`
)

// TestSnapshotSharesTimeForest: within one generation /v1/predict and
// /v1/schedule answer from one time forest — the schedule's cost provider
// holds the very pointer /v1/predict uses, whichever endpoint trains it
// first — and that forest predicts bitwise like a freshly trained one.
func TestSnapshotSharesTimeForest(t *testing.T) {
	for _, scheduleFirst := range []bool{false, true} {
		srv, _ := newTestServer(t)
		sn := srv.snap.Load()
		if scheduleFirst {
			postSchedule(t, srv, snapSchedule, http.StatusOK)
		}
		body := get(t, srv, snapPredictURL, http.StatusOK)
		forest := sn.forest
		if !scheduleFirst {
			postSchedule(t, srv, snapSchedule, http.StatusOK)
		}
		if srv.snap.Load() != sn {
			t.Fatal("snapshot replaced without a reload")
		}
		if forest == nil || sn.forest != forest {
			t.Fatalf("scheduleFirst=%v: time forest %p replaced by %p within one generation", scheduleFirst, forest, sn.forest)
		}
		if sn.costs.TimeForest() != forest {
			t.Fatalf("scheduleFirst=%v: /v1/schedule's time forest %p is not /v1/predict's %p",
				scheduleFirst, sn.costs.TimeForest(), forest)
		}

		// Training order is the store's listing order, so the fresh forest
		// trains on a grid read back from the store.
		g, err := harness.GridFromStore(srv.st)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := predict.FromGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := predict.Train(ds, srv.cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := g.Find("fft", "tiny", "gtx1080")
		spec, err := sim.Lookup("titanx")
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.PredictNs(predict.Features(src.Profiles, src.KernelLaunches, spec))
		if got := body["predicted_ns"].(float64); got != want {
			t.Fatalf("predicted_ns %v, fresh forest predicts %v", got, want)
		}
	}
}

// TestSnapshotConcurrentReloads: predictions and schedules race job
// reloads under -race; every answer comes from one whole generation, and
// once the reloads stop the server answers byte for byte like a fresh
// server over the final store.
func TestSnapshotConcurrentReloads(t *testing.T) {
	srv, _ := newTestServer(t) // 4 cells; the jobs below add 2 each
	validCells := map[float64]bool{4: true, 6: true, 8: true}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		method, url, body := "GET", snapPredictURL, ""
		if i%2 == 1 {
			method, url, body = "POST", "/v1/schedule", snapSchedule
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, resp := serveRaw(srv, method, url, body)
				var out map[string]any
				if code != http.StatusOK || json.Unmarshal([]byte(resp), &out) != nil {
					t.Errorf("%s %s during reloads: %d %s", method, url, code, resp)
					return
				}
				if n, _ := out["training_cells"].(float64); !validCells[n] {
					t.Errorf("%s %s: training_cells %v is no generation's cell count", method, url, out["training_cells"])
					return
				}
			}
		}()
	}
	for _, dev := range []string{"k20m", "titanx"} {
		id := postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["`+dev+`"],"samples":6}`,
			http.StatusAccepted)
		if st := waitJob(t, srv, id); st["state"] != string(jobDone) {
			t.Fatalf("job on %s: %v", dev, st)
		}
	}
	close(stop)
	wg.Wait()

	fresh, err := newServer(srv.st, srv.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ method, url, body string }{
		{"GET", snapPredictURL, ""},
		{"GET", "/v1/predict?bench=crc&size=tiny&device=k20m", ""},
		{"GET", "/v1/predict?bench=crc&size=tiny&device=knl-7210", ""},
		{"POST", "/v1/schedule", snapSchedule},
		{"POST", "/v1/schedule", `{"tasks":[{"benchmark":"crc","size":"tiny","count":3}],"policy":"energy"}`},
	} {
		code, got := serveRaw(srv, r.method, r.url, r.body)
		wantCode, want := serveRaw(fresh, r.method, r.url, r.body)
		if code != http.StatusOK || code != wantCode || got != want {
			t.Fatalf("%s %s after reloads: %d %s\nfresh server: %d %s", r.method, r.url, code, got, wantCode, want)
		}
	}
}

// TestSnapshotFailureSplit pins which endpoint fails on which store. The
// energy forest lives on the schedule path only, so a store holding a
// zero-energy cell (an NVML power dropout) still predicts; an empty store
// predicts nothing and schedules with the cost model's own error.
func TestSnapshotFailureSplit(t *testing.T) {
	for _, tc := range []struct {
		name          string
		faults        faults.Injector // nil: leave the store empty
		predictCode   int
		scheduleError func(g *harness.Grid) string
	}{
		{
			name:        "zero energy median",
			faults:      &faults.Plan{Seed: 7, PowerDropoutRate: 1},
			predictCode: http.StatusOK,
			scheduleError: func(g *harness.Grid) string {
				_, err := predict.EnergyFromGrid(g)
				if err == nil {
					t.Fatal("power dropout left every energy median positive")
				}
				return err.Error()
			},
		},
		{
			name:          "empty store",
			predictCode:   http.StatusNotFound,
			scheduleError: func(*harness.Grid) string { return "sched: no measured cells to build a cost model from" },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st := store.Cached(base)
			t.Cleanup(func() { st.Close() })
			if tc.faults != nil {
				opt := harness.DefaultOptions()
				opt.Samples = 6
				if _, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
					Benchmarks: []string{"crc", "fft"},
					Sizes:      []string{"tiny"},
					Devices:    []string{"i7-6700k", "gtx1080"}, // RAPL vs NVML metering
					Options:    opt,
					Workers:    2,
					Store:      st,
					Faults:     tc.faults,
				}); err != nil {
					t.Fatal(err)
				}
			}
			grid, err := harness.GridFromStore(st)
			if err != nil {
				t.Fatal(err)
			}
			cfg := predict.DefaultConfig()
			cfg.Trees = 20
			srv, err := newServer(st, cfg)
			if err != nil {
				t.Fatal(err)
			}

			get(t, srv, "/v1/predict?bench=fft&size=tiny&device=titanx", tc.predictCode)
			resp := postSchedule(t, srv, `{"tasks":[{"benchmark":"fft","size":"tiny"}]}`, http.StatusInternalServerError)
			if want := tc.scheduleError(grid); resp["error"] != want {
				t.Fatalf("/v1/schedule error %q, want %q", resp["error"], want)
			}
		})
	}
}
