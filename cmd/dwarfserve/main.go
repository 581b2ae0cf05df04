// Command dwarfserve serves a persistent result store over HTTP — the
// query and execution side of the dwarfsweep/dwarfbench/dwarfpredict
// -store pipeline. It loads every cell of the store into an in-memory
// index at startup (the store's own index is keyed by fingerprint; the
// server adds O(1) cell addressing by benchmark × size × device) and
// answers JSON queries:
//
//	GET    /healthz                               liveness
//	GET    /v1/status                             build info, uptime, cell/segment/job counts
//	GET    /metrics                               Prometheus text exposition of the server registry
//	GET    /v1/cells?bench=fft&size=tiny&device=gtx1080   filtered cell summaries
//	GET    /v1/grid                               every cell + the grid axes
//	GET    /v1/predict?bench=fft&size=tiny&device=gtx1080  runtime prediction
//	POST   /v1/schedule                           prediction-guided workload placement
//
// Beyond queries, dwarfserve executes sweeps asynchronously: a job measures
// a benchmark × size × device selection into the store (cells already
// present are store hits), streams per-cell progress, and on completion the
// server reloads its index so /v1/grid and /v1/predict see the new cells —
// identical, byte for byte, to a synchronous dwarfsweep of the same
// selection:
//
//	POST   /v1/jobs            submit a sweep {"benchmarks":[...],"sizes":[...],"devices":[...]}
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}        job status + progress counters
//	GET    /v1/jobs/{id}/events  per-cell event stream (Server-Sent Events)
//	DELETE /v1/jobs/{id}        cancel; completed cells stay persisted
//
// /v1/predict trains the internal/predict random forest over all stored
// cells on first use (deterministic in -seed, retrained after a job adds
// cells) and answers for any catalogue device — including devices the
// benchmark never ran on, the paper's §7 scenario. /v1/schedule reuses
// that same forest for its time costs.
//
// Every request passes a metrics/logging middleware (route-labelled
// request counters and latency histograms; 4xx/5xx logged server-side),
// job grids derive harness counters, and the store counts its appends and
// compactions — all into one registry served at GET /metrics. -pprof
// additionally mounts net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM shut down gracefully: running jobs are cancelled through
// their contexts (completed cells are already flushed to the store — the
// write path persists each cell before announcing it), event streams end
// with their terminal grid_done, and in-flight HTTP requests drain through
// http.Server.Shutdown before the store is closed.
//
//	dwarfsweep -sizes tiny -store results/
//	dwarfserve -store results/ -addr :7077
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/obs/series"
	"opendwarfs/internal/obs/slo"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sched"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
)

func main() {
	def := predict.DefaultConfig()
	var (
		storeDir    = flag.String("store", "", "persistent result store directory (required)")
		compactOver = flag.Int64("compact-over", 0, "compact the store after a job reload whenever its on-disk footprint exceeds this many bytes (0 = never)")
		addr        = flag.String("addr", ":7077", "listen address")
		trees       = flag.Int("trees", def.Trees, "forest size for /v1/predict")
		depth       = flag.Int("depth", def.MaxDepth, "maximum tree depth for /v1/predict")
		seed        = flag.Int64("seed", def.Seed, "training seed for /v1/predict")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline for in-flight HTTP requests")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
		sampleEvery = flag.Duration("sample-interval", time.Second, "telemetry sampling period for /v1/metrics/history and /v1/metrics/stream")
		seriesCap   = flag.Int("series-capacity", 600, "telemetry ring capacity in samples (history window = capacity × interval)")
		alertsPath  = flag.String("alerts", "", "JSON alert-rule file for /v1/alerts (default: built-in rules)")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event file of the server's job spans on shutdown (open in Perfetto or chrome://tracing)")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "dwarfserve: missing -store")
		os.Exit(1)
	}

	// The store is wrapped in the zero-copy slot cache before anything reads
	// it: the initial snapshot load, every job, and every reload all share
	// one decoded measurement per cell, and the cache's hit/miss/evict
	// counters are complete from process start.
	inner, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarfserve:", err)
		os.Exit(1)
	}
	st := store.Cached(inner)
	cfg := def
	cfg.Trees, cfg.MaxDepth, cfg.Seed = *trees, *depth, *seed

	srv, err := newServer(st, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarfserve:", err)
		os.Exit(1)
	}
	srv.compactOver = *compactOver
	if *pprofOn {
		srv.enablePprof()
	}
	rules := defaultAlertRules()
	if *alertsPath != "" {
		f, err := os.Open(*alertsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarfserve:", err)
			os.Exit(1)
		}
		rules, err = slo.LoadRules(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarfserve:", err)
			os.Exit(1)
		}
	}
	if err := srv.initTelemetry(series.Options{Capacity: *seriesCap, Interval: *sampleEvery}, rules); err != nil {
		fmt.Fprintln(os.Stderr, "dwarfserve:", err)
		os.Exit(1)
	}
	if *tracePath != "" {
		srv.tracer = obs.NewTracer()
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	samplerCtx, samplerStop := context.WithCancel(context.Background())
	defer samplerStop()
	go srv.runSampler(samplerCtx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("dwarfserve: %d cells from %s (%d segment files), listening on %s",
		srv.snap.Load().grid.Cells(), *storeDir, st.Segments(), *addr)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "dwarfserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: cancel running jobs first — their workers stop
	// claiming cells, in-flight measurements abort, and every completed
	// cell is already in the store — then drain HTTP connections (the
	// cancelled jobs' SSE streams end with grid_done, so they drain too),
	// and finally close the store.
	log.Printf("dwarfserve: shutting down: cancelling %d running job(s), draining connections", srv.runningJobs())
	srv.shutdownJobs()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("dwarfserve: drain: %v", err)
	}
	samplerStop()
	if err := st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dwarfserve:", err)
		os.Exit(1)
	}
	// The trace is exported last, after every job span (including
	// cancelled ones) has ended — shutdownJobs waited for their terminal
	// events — so the file is always well-formed.
	if srv.tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarfserve:", err)
			os.Exit(1)
		}
		if err := srv.tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "dwarfserve:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dwarfserve:", err)
			os.Exit(1)
		}
		log.Printf("dwarfserve: Chrome trace (%d spans) written to %s", srv.tracer.Spans(), *tracePath)
	}
	log.Printf("dwarfserve: store closed, bye")
}

// server answers queries from an immutable snapshot of the store, loaded
// at startup and replaced whenever an async job finishes, so query handlers
// see new cells without a restart; sweeps run by other processes still
// become visible on restart only. Each handler loads the snapshot once and
// answers entirely from it, models included, so a reload mid-request never
// mixes two generations.
type server struct {
	st          store.CellStore
	compactOver int64 // post-reload footprint bound in bytes; 0 = unbounded
	mux         *http.ServeMux
	cfg         predict.Config
	metrics     *obs.Registry // one registry for HTTP, store, jobs and gauges
	started     time.Time     // process start, for /v1/status uptime

	// snap is the current query snapshot; see snapshot.
	snap     atomic.Pointer[snapshot]
	reloadMu sync.Mutex // serialises reloadFromStore's read and publish

	// Async sweep jobs; see jobs.go.
	jobMu      sync.Mutex
	jobs       map[string]*job
	jobOrder   []string // creation order, for listing
	jobSeq     int
	jobsCtx    context.Context // parent of every job context
	jobsCancel context.CancelFunc
	jobWG      sync.WaitGroup
	draining   bool // set at shutdown: new jobs are rejected

	// keepAlive is the SSE comment-frame interval (tests shrink it).
	keepAlive time.Duration

	// Live telemetry (see telemetry.go): the ring-buffer recorder over
	// this server's registry and the alert engine evaluated on each
	// sample tick. Assigned by initTelemetry before serving starts,
	// never re-assigned after.
	series *series.Recorder
	alerts *slo.Engine

	// tracer records server-lifetime spans (jobs and their harness
	// children) when -trace is set; nil otherwise.
	tracer *obs.Tracer

	// Devices quarantined by job executions (device → reason). /v1/schedule
	// keeps them out of the default fleet and rejects explicit requests for
	// them; healthz lists them.
	quarMu      sync.Mutex
	quarantined map[string]string
}

func cellID(bench, size, device string) string { return bench + "\x00" + size + "\x00" + device }

func newServer(st store.CellStore, cfg predict.Config) (*server, error) {
	s := &server{
		st:          st,
		cfg:         cfg,
		metrics:     obs.NewRegistry(),
		started:     time.Now(),
		jobs:        make(map[string]*job),
		keepAlive:   15 * time.Second,
		quarantined: make(map[string]string),
	}
	// Instrument before the first read so the startup snapshot's slot-cache
	// misses (and any store counters) are visible on /metrics.
	st.Instrument(s.metrics)
	if err := s.initTelemetry(series.Options{}, defaultAlertRules()); err != nil {
		return nil, err
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	if err := s.reloadFromStore(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("GET /v1/metrics/stream", s.handleMetricsStream)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /v1/cells", s.handleCells)
	s.mux.HandleFunc("GET /v1/grid", s.handleGrid)
	s.mux.HandleFunc("GET /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s, nil
}

// snapshot is one generation of the query state: the grid, its O(1) cell
// index and axes (distinct values in store listing order), and the models
// trained on it. It is never mutated after publication except through its
// Onces, so a request that took an old snapshot can only ever fill that
// snapshot's own models — never a newer generation's.
type snapshot struct {
	grid                       *harness.Grid
	byCell                     map[string]*harness.Measurement
	benchmarks, sizes, devices []string

	// The time forest is trained on first /v1/predict or /v1/schedule.
	forestOnce sync.Once
	forest     *predict.Forest
	forestErr  error

	// The scheduler's cost provider is built on first /v1/schedule around
	// the same time forest; only its energy forest is trained anew.
	costsOnce sync.Once
	costs     *sched.Costs
	costsErr  error
}

func newSnapshot(grid *harness.Grid) *snapshot {
	sn := &snapshot{grid: grid, byCell: make(map[string]*harness.Measurement, grid.Cells())}
	seenB, seenS, seenD := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, m := range grid.Measurements {
		sn.byCell[cellID(m.Benchmark, m.Size, m.Device.ID)] = m
		if !seenB[m.Benchmark] {
			seenB[m.Benchmark] = true
			sn.benchmarks = append(sn.benchmarks, m.Benchmark)
		}
		if !seenS[m.Size] {
			seenS[m.Size] = true
			sn.sizes = append(sn.sizes, m.Size)
		}
		if !seenD[m.Device.ID] {
			seenD[m.Device.ID] = true
			sn.devices = append(sn.devices, m.Device.ID)
		}
	}
	return sn
}

// timeForest returns the snapshot's time forest, training it
// (deterministically in cfg.Seed) on first use.
func (sn *snapshot) timeForest(cfg predict.Config) (*predict.Forest, error) {
	sn.forestOnce.Do(func() {
		ds, err := predict.FromGrid(sn.grid)
		if err != nil {
			sn.forestErr = err
			return
		}
		sn.forest, sn.forestErr = predict.Train(ds, cfg)
	})
	return sn.forest, sn.forestErr
}

// scheduleCosts returns the snapshot's cost provider, built on first use
// around timeForest. The energy forest stays on this path only: a store
// whose energy medians cannot train one (an NVML power dropout stores a
// zero median) still answers /v1/predict.
func (sn *snapshot) scheduleCosts(cfg predict.Config) (*sched.Costs, error) {
	sn.costsOnce.Do(func() {
		timeF, err := sn.timeForest(cfg)
		if err != nil {
			// NewCosts owns the schedule path's error wording; it fails at
			// the same (untrained) stage as timeForest did, so no forest
			// is trained twice.
			sn.costs, sn.costsErr = sched.NewCosts(sn.grid, cfg)
			return
		}
		sn.costs, sn.costsErr = sched.NewCostsFrom(sn.grid, timeF, cfg)
	})
	return sn.costs, sn.costsErr
}

// reloadFromStore rebuilds the snapshot from the store — called after a
// job lands new cells, so queries (and the CI byte-for-byte check) see
// exactly what a fresh GridFromStore would. Reloads are serialised: of two
// jobs finishing together, the later read always publishes last.
func (s *server) reloadFromStore() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	grid, err := harness.GridFromStore(s.st)
	if err != nil {
		return err
	}
	s.snap.Store(newSnapshot(grid))
	return nil
}

// maybeCompact enforces the -compact-over footprint bound after a job
// reload: when the store reports a footprint above the bound, dead segment
// files are folded into a fresh snapshot. Compaction is best-effort — a
// failure is logged, never fatal, and the next reload tries again.
func (s *server) maybeCompact() {
	if s.compactOver <= 0 {
		return
	}
	compacted, err := s.st.CompactIfOver(s.compactOver)
	if err != nil {
		log.Printf("dwarfserve: compact-over: %v", err)
		return
	}
	if compacted {
		bytes, _ := s.st.DiskBytes()
		log.Printf("dwarfserve: store compacted under -compact-over=%d (now %d bytes, %d segment file(s))",
			s.compactOver, bytes, s.st.Segments())
	}
}

// ServeHTTP lives in obs.go: the request/metrics/logging middleware wraps
// the mux there.

// cellSummary is the wire form of one measured cell: the statistics every
// figure is built from, without the raw sample vectors.
type cellSummary struct {
	Benchmark        string  `json:"benchmark"`
	Size             string  `json:"size"`
	Device           string  `json:"device"`
	Class            string  `json:"class"`
	Functional       bool    `json:"functional"`
	Verified         bool    `json:"verified"`
	Samples          int     `json:"samples"`
	Iterations       int     `json:"iterations_per_sample"`
	FootprintBytes   int64   `json:"footprint_bytes"`
	MedianNs         float64 `json:"median_ns"`
	MeanNs           float64 `json:"mean_ns"`
	CV               float64 `json:"cv"`
	CI95LoNs         float64 `json:"ci95_lo_ns"`
	CI95HiNs         float64 `json:"ci95_hi_ns"`
	TransferMedianNs float64 `json:"transfer_median_ns"`
	EnergyMedianJ    float64 `json:"energy_median_j"`
}

func summarize(m *harness.Measurement) cellSummary {
	return cellSummary{
		Benchmark:        m.Benchmark,
		Size:             m.Size,
		Device:           m.Device.ID,
		Class:            m.Device.Class.String(),
		Functional:       m.Functional,
		Verified:         m.Verified,
		Samples:          len(m.KernelNs),
		Iterations:       m.Iterations,
		FootprintBytes:   m.FootprintBytes,
		MedianNs:         m.Kernel.Median,
		MeanNs:           m.Kernel.Mean,
		CV:               m.Kernel.CV,
		CI95LoNs:         m.Kernel.CI95Lo,
		CI95HiNs:         m.Kernel.CI95Hi,
		TransferMedianNs: m.Transfer.Median,
		EnergyMedianJ:    m.Energy.Median,
	}
}

// quarantineDevice records a device-down verdict from a job execution.
func (s *server) quarantineDevice(device, reason string) {
	s.quarMu.Lock()
	s.quarantined[device] = reason
	s.quarMu.Unlock()
}

// quarantinedDevices returns the quarantine registry's device IDs, sorted.
func (s *server) quarantinedDevices() []string {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	out := make([]string, 0, len(s.quarantined))
	for d := range s.quarantined {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// handleHealth is pure liveness: the process is up and answering. Cell,
// segment, job and quarantine state lives in /v1/status.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// defaultCellPageLimit bounds an unpaginated /v1/cells answer; clients
// wanting the rest follow next_cursor.
const defaultCellPageLimit = 500

// cellCursor is the keyset-pagination position of one cell: its
// (benchmark, size, device) triple, NUL-joined so that lexicographic
// comparison of cursors equals tuple comparison of cells — exactly the
// canonical order the snapshot is listed in. Keyset cursors survive
// snapshot reloads between pages: cells added behind the cursor are
// skipped, cells added ahead of it appear, and nothing is ever repeated.
func cellCursor(m *harness.Measurement) string {
	return m.Benchmark + "\x00" + m.Size + "\x00" + m.Device.ID
}

func encodeCursor(c string) string { return base64.RawURLEncoding.EncodeToString([]byte(c)) }

func decodeCursor(s string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || strings.Count(string(b), "\x00") != 2 {
		return "", fmt.Errorf("invalid cursor %q", s)
	}
	return string(b), nil
}

// handleCells answers filtered cell listings as a paginated envelope:
//
//	{"items": [...], "next_cursor": "...", "total": N}
//
// total counts every cell matching the filters; items holds at most limit=
// of them (default 500) starting after cursor=; next_cursor is the opaque
// position to resume from, empty on the last page.
func (s *server) handleCells(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bench, size, device := q.Get("bench"), q.Get("size"), q.Get("device")
	var matched []*harness.Measurement
	for _, m := range s.snap.Load().grid.Measurements {
		if (bench == "" || m.Benchmark == bench) &&
			(size == "" || m.Size == size) &&
			(device == "" || m.Device.ID == device) {
			matched = append(matched, m)
		}
	}

	limit := defaultCellPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	start := 0
	if cur := q.Get("cursor"); cur != "" {
		after, err := decodeCursor(cur)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// The snapshot is in canonical (benchmark, size, device) order, so
		// the page resumes at the first cell strictly after the cursor.
		start = sort.Search(len(matched), func(i int) bool { return cellCursor(matched[i]) > after })
	}
	end := min(start+limit, len(matched))
	items := make([]cellSummary, 0, end-start)
	for _, m := range matched[start:end] {
		items = append(items, summarize(m))
	}
	next := ""
	if end < len(matched) {
		next = encodeCursor(cellCursor(matched[end-1]))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"items":       items,
		"next_cursor": next,
		"total":       len(matched),
	})
}

func (s *server) handleGrid(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	cells := make([]cellSummary, 0, sn.grid.Cells())
	for _, m := range sn.grid.Measurements {
		cells = append(cells, summarize(m))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"benchmarks": sn.benchmarks,
		"sizes":      sn.sizes,
		"devices":    sn.devices,
		"count":      len(cells),
		"cells":      cells,
	})
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bench, size, device := q.Get("bench"), q.Get("size"), q.Get("device")
	if bench == "" || size == "" || device == "" {
		writeError(w, http.StatusBadRequest, "want bench=, size= and device= query parameters")
		return
	}

	// One snapshot answers the whole request: training and lookup agree
	// even if a job reloads the snapshot mid-request.
	sn := s.snap.Load()
	// The workload half of the feature vector comes from any stored
	// measurement of this benchmark × size — AIWC profiles are
	// device-independent, so the first one is as good as any.
	var src *harness.Measurement
	for _, d := range sn.devices {
		if m := sn.byCell[cellID(bench, size, d)]; m != nil {
			src = m
			break
		}
	}
	actual := sn.byCell[cellID(bench, size, device)]
	if src == nil {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("no stored measurement of %s/%s on any device; sweep it into the store first", bench, size))
		return
	}

	// The device half comes from the stored cell when this exact device
	// was measured, otherwise from the catalogue — which is what lets the
	// daemon answer for devices the benchmark never ran on.
	var spec *sim.DeviceSpec
	if actual != nil {
		spec = actual.Device
	} else {
		var err error
		if spec, err = sim.Lookup(device); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
	}

	forest, err := sn.timeForest(s.cfg)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	predNs := forest.PredictNs(predict.Features(src.Profiles, src.KernelLaunches, spec))
	resp := map[string]any{
		"benchmark":      bench,
		"size":           size,
		"device":         device,
		"predicted_ns":   predNs,
		"measured":       actual != nil,
		"training_cells": sn.grid.Cells(),
	}
	if actual != nil {
		resp["actual_ns"] = actual.Kernel.Median
		resp["ape"] = 100 * math.Abs(predNs-actual.Kernel.Median) / actual.Kernel.Median
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("dwarfserve: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
