package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sched"
	"opendwarfs/internal/store"
)

// Layer pass shape.
const (
	minCoverage    = 0.95 // share of harness.prepare the five sub-phases must account for
	layerCycles    = 4    // serve cycles in the layer pass
	layerWarm      = 300  // warm predicts per layer-pass cycle: 1200 in all, enough for a p99
	scheduleRepeat = 20   // sched.Schedule calls timed for sched.schedule.us
	subPhaseReps   = 2    // sub-phase runs per row, alternated with the traced row grid
)

// serveRoutes maps dwarfserve's mux patterns to per-layer metric names.
var serveRoutes = []struct{ route, name string }{
	{"GET /v1/predict", "serve.predict.server_ms"},
	{"POST /v1/schedule", "serve.schedule.server_ms"},
	{"GET /v1/grid", "serve.grid.server_ms"},
	{"GET /v1/cells", "serve.cells.server_ms"},
	{"POST /v1/jobs", "serve.jobs.server_ms"},
}

// layerPass carries the traced run's state: the benchmark's own tracer,
// the pass's dataset seed and the result being filled.
type layerPass struct {
	e   *env
	tr  *obs.Tracer
	reg *dwarfs.Registry
	opt harness.Options
	r   *result
}

// runLayers is the traced run. It is the same on every workload: each layer
// is called through its public functions from this package under a span of
// the benchmark's own, the paper grid is swept under the obs tracer (and
// untraced, for the overhead and the export check), and dwarfserve serves a
// few cycles with -trace. It writes a Chrome trace and a per-layer self-time
// table under trace/ in the build directory and reports every per-layer
// metric, among them the peak resident set of this process over the whole
// pass and of the dwarfserve child over its cycles.
func runLayers(ctx context.Context, e *env, r *result) error {
	reg, spec := sweepSetup()
	p := &layerPass{e: e, tr: obs.NewTracer(), reg: reg, opt: spec.Options, r: r}
	p.opt.Seed = datasetSeed(e.seed, streamLayers, 0)

	if err := p.subPhases(ctx); err != nil {
		return err
	}
	if err := p.measure(ctx); err != nil {
		return err
	}
	g, err := p.sweeps(ctx)
	if err != nil {
		return err
	}
	if err := p.storeLayer(ctx, g); err != nil {
		return err
	}
	if err := p.predictLayers(g); err != nil {
		return err
	}
	if err := p.serveLayer(ctx, g); err != nil {
		return err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB")
	return p.writeTrace()
}

// timed runs f under a benchmark span and returns its duration and the MB
// it allocated.
func (p *layerPass) timed(ctx context.Context, name string, f func() error) (time.Duration, float64, error) {
	_, sp := p.tr.StartSpan(ctx, name)
	a := allocMB()
	t := time.Now()
	err := f()
	d := time.Since(t)
	a = allocMB() - a
	sp.End()
	return d, a, err
}

// subPhaseNames are the five steps of harness.Prepare, in its order.
var subPhaseNames = []string{"dataset", "setup", "characterise", "functional", "verify"}

// phaseCost is one sub-phase's time and allocation.
type phaseCost struct {
	d  time.Duration
	mb float64
}

// prepareRow runs one benchmark × size through harness.Prepare's steps, each
// timed on its own: Benchmark.New (dataset), Setup and the footprint check,
// the simulate-only Iterate (characterise), and, within the functional
// budget, the executing Iterate and Verify. It returns each step's cost and
// the characterised operation count.
func (p *layerPass) prepareRow(ctx context.Context, b dwarfs.Benchmark, size string) (map[string]phaseCost, float64, error) {
	ctx, sp := p.tr.StartSpan(ctx, "layer.prepare", obs.String("benchmark", b.Name()), obs.String("size", size))
	defer sp.End()
	costs := map[string]phaseCost{}
	run := func(name string, f func() error) error {
		d, mb, err := p.timed(ctx, "layer."+name, f)
		costs[name] = phaseCost{d, mb}
		if err != nil {
			return fmt.Errorf("%s/%s %s: %w", b.Name(), size, name, err)
		}
		return nil
	}
	dev := opencl.AllDevices()[0]
	var (
		inst dwarfs.Instance
		q    *opencl.CommandQueue
		ops  float64
	)
	if err := run("dataset", func() (err error) { inst, err = b.New(size, p.opt.Seed); return err }); err != nil {
		return nil, 0, err
	}
	if err := run("setup", func() error {
		clctx, err := opencl.NewContext(dev)
		if err != nil {
			return err
		}
		if q, err = opencl.NewQueue(clctx, dev); err != nil {
			return err
		}
		if err := inst.Setup(clctx, q); err != nil {
			return err
		}
		q.DrainEvents()
		return dwarfs.CheckFootprint(inst, clctx)
	}); err != nil {
		return nil, 0, err
	}
	if err := run("characterise", func() error {
		q.SetSimulateOnly(true)
		err := inst.Iterate(q)
		for _, ev := range q.DrainEvents() {
			if ev.Kind == opencl.CommandKernel {
				ops += ev.Profile.TotalOps()
			}
		}
		return err
	}); err != nil {
		return nil, 0, err
	}
	if ops > p.opt.MaxFunctionalOps {
		return costs, ops, nil
	}
	if err := run("functional", func() error {
		q.SetSimulateOnly(false)
		q.ResetTimeline()
		err := inst.Iterate(q)
		q.DrainEvents()
		return err
	}); err != nil {
		return nil, 0, err
	}
	return costs, ops, run("verify", inst.Verify)
}

// rowPrepareNs runs one benchmark × size as a one-cell traced grid and
// returns its harness.prepare span's duration: the program's own measure of
// the preparation prepareRow takes apart.
func (p *layerPass) rowPrepareNs(ctx context.Context, b dwarfs.Benchmark, size string) (int64, error) {
	tr := obs.NewTracer()
	if _, err := harness.RunGrid(ctx, p.reg, harness.GridSpec{
		Benchmarks: []string{b.Name()}, Sizes: []string{size}, Devices: []string{opencl.AllDevices()[0].ID()},
		Options: p.opt, Workers: 1, Tracer: tr,
	}); err != nil {
		return 0, err
	}
	spans, err := readSpans(tr)
	if err != nil {
		return 0, err
	}
	for _, s := range spans {
		if s.Name == "harness.prepare" {
			return s.DurNs, nil
		}
	}
	return 0, fmt.Errorf("%s/%s: traced grid has no harness.prepare span", b.Name(), size)
}

// subPhases times the five sub-phases of every benchmark × size and checks
// that they account for the harness's own harness.prepare time. Each row
// alternates the sub-phase run and the one-cell traced grid twice, from a
// collected heap, and keeps the faster of each, so a burst of host noise on
// one side does not decide the coverage.
func (p *layerPass) subPhases(ctx context.Context) error {
	type phase struct {
		ms, mb float64
		per    map[string]float64
	}
	ph := map[string]*phase{}
	for _, n := range subPhaseNames {
		ph[n] = &phase{per: map[string]float64{}}
	}
	var subNs, prepNs int64
	rows, gops := 0, 0.0
	for _, b := range p.reg.All() {
		for _, size := range b.Sizes() {
			var best map[string]phaseCost
			var bestNs, bestPrep int64
			var ops float64
			for rep := range subPhaseReps {
				runtime.GC()
				costs, o, err := p.prepareRow(ctx, b, size)
				if err != nil {
					p.r.Failed++
					return checkf("sub-phase pass: %v", err)
				}
				var total int64
				for _, c := range costs {
					total += c.d.Nanoseconds()
				}
				if rep == 0 || total < bestNs {
					best, bestNs, ops = costs, total, o
				}
				runtime.GC()
				prep, err := p.rowPrepareNs(ctx, b, size)
				if err != nil {
					return err
				}
				if rep == 0 || prep < bestPrep {
					bestPrep = prep
				}
			}
			p.r.Attempted++
			subNs += bestNs
			prepNs += bestPrep
			for n, c := range best {
				ph[n].ms += c.d.Seconds() * 1e3
				ph[n].mb += c.mb
				ph[n].per[b.Name()] += c.d.Seconds() * 1e3
			}
			if _, ok := best["functional"]; ok {
				rows++
				gops += ops / 1e9
			}
		}
	}
	for _, n := range []string{"dataset", "functional", "verify"} {
		for bench, ms := range ph[n].per {
			p.r.set(n+"."+bench+".ms", ms, "ms")
		}
	}
	for n, x := range ph {
		p.r.set(n+".ms", x.ms, "ms")
	}
	p.r.set("dataset.alloc_mb", ph["dataset"].mb, "MB")
	p.r.set("setup.alloc_mb", ph["setup"].mb, "MB")
	p.r.set("functional.rows", float64(rows), "count")
	p.r.set("verify.rows", float64(rows), "count")
	p.r.set("functional.gops", gops, "Gop")
	p.r.set("functional.gops_per_s", gops/(ph["functional"].ms/1e3), "Gop/s")
	coverage := float64(subNs) / float64(prepNs)
	p.r.set("harness.prepare_coverage", coverage, "ratio")
	if coverage < minCoverage {
		return checkf("sub-phases cover %.3f of harness.prepare, want ≥ %.2f", coverage, minCoverage)
	}
	return nil
}

// measure times Preparation.Measure on every cell. The preparations skip
// functional execution: Measure replays the same kernel profiles either way.
func (p *layerPass) measure(ctx context.Context) error {
	opt := p.opt
	opt.MaxFunctionalOps = 0
	var total time.Duration
	var mb float64
	cells := 0
	for _, b := range p.reg.All() {
		for _, size := range b.Sizes() {
			prep, err := harness.Prepare(ctx, b, size, opt)
			if err != nil {
				return err
			}
			for _, dev := range opencl.AllDevices() {
				d, a, err := p.timed(ctx, "layer.measure", func() error {
					_, err := prep.Measure(ctx, dev, opt)
					return err
				})
				if err != nil {
					return err
				}
				total += d
				mb += a
				cells++
			}
		}
	}
	p.r.Attempted += cells
	p.r.set("measure.us_per_cell", total.Seconds()*1e6/float64(cells), "us")
	p.r.set("measure.alloc_mb", mb, "MB")
	return nil
}

// sweeps runs the paper grid untraced and then under the tracer, from the
// same dataset seed, checks both and that their exports match, and derives
// the harness metrics from the traced run's spans.
func (p *layerPass) sweeps(ctx context.Context) (*harness.Grid, error) {
	spec := harness.GridSpec{Options: p.opt, Workers: gridWorkers}
	t := time.Now()
	plain, err := harness.RunGrid(ctx, p.reg, spec)
	plainWall := time.Since(t)
	if err != nil {
		return nil, err
	}
	spec.Tracer = p.tr
	sctx, sp := p.tr.StartSpan(ctx, "layer.sweep")
	t = time.Now()
	traced, err := harness.RunGrid(sctx, p.reg, spec)
	tracedWall := time.Since(t)
	sp.End()
	if err != nil {
		return nil, err
	}
	p.r.Attempted += 2 * paperCells
	p.r.Failed += len(plain.Failed) + len(traced.Failed)
	for _, g := range []*harness.Grid{plain, traced} {
		if err := checkSweep(g); err != nil {
			return nil, err
		}
	}
	d1, err := gridDigest(plain)
	if err != nil {
		return nil, err
	}
	d2, err := gridDigest(traced)
	if err != nil {
		return nil, err
	}
	if d1 != d2 {
		return nil, checkf("sweep: traced export %s differs from untraced %s", d2[:12], d1[:12])
	}

	spans, err := readSpans(p.tr)
	if err != nil {
		return nil, err
	}
	lts := selfTimes(spans)
	for _, n := range []string{"harness.prepare", "harness.measure", "harness.grid"} {
		lt, _ := selfOf(lts, n)
		p.r.set(n+".self_ms", float64(lt.self)/1e6, "ms")
	}
	grid, _ := selfOf(lts, "harness.grid")
	cells, _ := selfOf(lts, "harness.cell")
	wait := prepareWait(spans)
	p.r.set("harness.worker_busy_ratio", float64(cells.totalNs-wait)/float64(gridWorkers*grid.totalNs), "ratio")
	p.r.set("trace.overhead_ratio", tracedWall.Seconds()/plainWall.Seconds(), "ratio")
	p.r.set("sweep_cells_per_s", paperCells/plainWall.Seconds(), "1/s")
	return traced, nil
}

// storeLayer times the store's public operations on the traced grid: Put,
// reopen (segment replay), Records, decoding every record, an all-hit
// re-sweep through the slot cache, and Compact.
func (p *layerPass) storeLayer(ctx context.Context, g *harness.Grid) error {
	dir := filepath.Join(p.e.work, "layer-store")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var put, enc time.Duration
	for _, m := range g.Measurements {
		var raw []byte
		d, _, err := p.timed(ctx, "layer.store.encode", func() (err error) { raw, err = harness.EncodeMeasurement(m); return err })
		if err != nil {
			st.Close()
			return err
		}
		enc += d
		rec := store.Record{
			Key: harness.CellKey(m.Benchmark, m.Size, m.Device, p.opt), Benchmark: m.Benchmark,
			Size: m.Size, Device: m.Device.ID, Schema: harness.StoreSchemaVersion, Value: raw,
		}
		d, _, err = p.timed(ctx, "layer.store.put", func() error { return st.Put(rec) })
		if err != nil {
			st.Close()
			return err
		}
		put += d
	}
	n := float64(g.Cells())
	bytes, err := st.DiskBytes()
	if err != nil {
		st.Close()
		return err
	}
	p.r.set("store.encode.us_per_cell", enc.Seconds()*1e6/n, "us")
	p.r.set("store.put.us_per_cell", put.Seconds()*1e6/n, "us")
	p.r.set("store.bytes_per_cell", float64(bytes)/n, "B")
	p.r.set("store.segments", float64(st.Segments()), "count")
	if err := st.Close(); err != nil {
		return err
	}

	d, _, err := p.timed(ctx, "layer.store.open", func() (err error) { st, err = store.Open(dir); return err })
	if err != nil {
		return err
	}
	cs := store.Cached(st)
	defer cs.Close()
	p.r.set("store.open.ms", d.Seconds()*1e3, "ms")
	var recs []*store.Record
	d, _, _ = p.timed(ctx, "layer.store.records", func() error { recs = cs.Records(); return nil })
	p.r.set("store.records.ms", d.Seconds()*1e3, "ms")
	d, _, err = p.timed(ctx, "layer.store.decode", func() error {
		for _, rec := range recs {
			if _, err := harness.DecodeMeasurement(rec.Value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.r.set("store.decode.us_per_cell", d.Seconds()*1e6/float64(len(recs)), "us")

	want, err := gridDigest(g)
	if err != nil {
		return err
	}
	var re *harness.Grid
	d, _, err = p.timed(ctx, "layer.store.resweep", func() (err error) {
		re, err = harness.RunGrid(ctx, p.reg, harness.GridSpec{Options: p.opt, Workers: gridWorkers, Store: cs})
		return err
	})
	if err != nil {
		return err
	}
	p.r.Attempted += paperCells
	if err := checkResweep(re, paperCells, want); err != nil {
		p.r.Failed += paperCells - re.StoreHits
		return err
	}
	p.r.set("resweep_cells_per_s", paperCells/d.Seconds(), "1/s")
	d, _, err = p.timed(ctx, "layer.store.compact", cs.Compact)
	if err != nil {
		return err
	}
	p.r.set("store.compact.ms", d.Seconds()*1e3, "ms")
	return checkLen("compaction", cs, paperCells, p.r)
}

// predictLayers times the forest (dataset extraction, training, prediction)
// and the scheduler (cost provider, one HEFT schedule) on the traced grid.
func (p *layerPass) predictLayers(g *harness.Grid) error {
	ctx := context.Background()
	cfg := predict.DefaultConfig()
	var ds *predict.Dataset
	d, _, err := p.timed(ctx, "layer.predict.from_grid", func() (err error) { ds, err = predict.FromGrid(g); return err })
	if err != nil {
		return err
	}
	p.r.set("predict.from_grid.ms", d.Seconds()*1e3, "ms")

	var f *predict.Forest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, _, err = p.timed(ctx, "layer.predict.train", func() (err error) { f, err = predict.Train(ds, cfg); return err })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	p.r.set("predict.train.ms", d.Seconds()*1e3, "ms")
	p.r.set("predict.train.allocs", float64(after.Mallocs-before.Mallocs), "count")
	p.r.set("predict.train.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), "MB")
	d, _, _ = p.timed(ctx, "layer.predict.predict", func() error {
		for _, row := range ds.Rows {
			f.Predict(row.Features)
		}
		return nil
	})
	p.r.set("predict.predict.us", d.Seconds()*1e6/float64(len(ds.Rows)), "us")

	var costs *sched.Costs
	d, _, err = p.timed(ctx, "layer.sched.new_costs", func() (err error) { costs, err = sched.NewCosts(g, cfg); return err })
	if err != nil {
		return err
	}
	p.r.set("sched.new_costs.ms", d.Seconds()*1e3, "ms")
	var tasks []sched.TaskSpec
	for i, rw := range gridRows(p.reg) {
		if i%7 == 0 {
			tasks = append(tasks, sched.TaskSpec{Benchmark: rw.bench, Size: rw.size, Count: 1 + i%4})
		}
	}
	w, err := (&sched.WorkloadSpec{Tasks: tasks}).Expand(p.reg)
	if err != nil {
		return err
	}
	fleet, err := sched.Fleet(nil)
	if err != nil {
		return err
	}
	pol, err := sched.LookupPolicy("heft")
	if err != nil {
		return err
	}
	var times []float64
	for range scheduleRepeat {
		d, _, err := p.timed(ctx, "layer.sched.schedule", func() error {
			_, err := pol.Schedule(w, fleet, costs, sched.DefaultOptions())
			return err
		})
		if err != nil {
			return err
		}
		times = append(times, d.Seconds()*1e6)
	}
	p.r.set("sched.schedule.us", median(times), "us")
	return nil
}

// serveLayer serves the traced grid (minus the held-out devices) from
// dwarfserve -trace for a few cycles and splits each route's time into
// server time, from /metrics http_request_ns deltas, and the client's wait.
func (p *layerPass) serveLayer(ctx context.Context, g *harness.Grid) error {
	plan := newServePlan(p.e.seed, p.reg)
	plan.datasetSeed = p.opt.Seed
	dir := filepath.Join(p.e.work, "layer-serve")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	served := map[string]bool{}
	for _, d := range plan.served {
		served[d] = true
	}
	for _, m := range g.Measurements {
		if !served[m.Device.ID] {
			continue
		}
		if err := putCell(st, m, p.opt); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}

	traceDir := filepath.Join(p.e.out, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	s, _, err := startServe(ctx, p.e, dir, filepath.Join(traceDir, p.traceName()+"-dwarfserve.json"))
	if err != nil {
		return err
	}
	defer s.stop()
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	var chk serveChecks
	var job, pCold, sCold, sWarm, pWarm, query []float64
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	_, sp := p.tr.StartSpan(ctx, "layer.serve")
	for range layerCycles {
		ct, err := plan.cycle(s, layerWarm, &chk, p.r)
		if err != nil {
			sp.End()
			return err
		}
		job, pCold = append(job, ms(ct.job)), append(pCold, ms(ct.predictCold))
		sCold, sWarm = append(sCold, ms(ct.scheduleCold)), append(sWarm, ms(ct.scheduleWarm))
		for _, d := range ct.predictWarm {
			pWarm = append(pWarm, ms(d))
		}
		for _, d := range ct.query {
			query = append(query, ms(d))
		}
	}
	sp.End()
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(s.cmd.Process.Pid)
	if err != nil {
		return err
	}
	p.r.set("serve.peak_rss_mb", rss, "MB")
	p.r.set("serve.job_p50_ms", median(job), "ms")
	p.r.set("serve.predict_cold_p50_ms", median(pCold), "ms")
	p.r.set("serve.schedule_cold_p50_ms", median(sCold), "ms")
	p.r.set("serve.predict_warm_p50_ms", median(pWarm), "ms")
	if v, ok := p99(pWarm); ok {
		p.r.set("serve.predict_warm_p99_ms", v, "ms")
	}
	p.r.set("serve.schedule_warm_p50_ms", median(sWarm), "ms")
	p.r.set("serve.query_p50_ms", median(query), "ms")

	delta := func(k string) float64 { return m1[k] - m0[k] }
	var serverNs float64
	for k := range m1 {
		if strings.HasPrefix(k, "http_request_ns_sum{") && k != `http_request_ns_sum{route="GET /metrics"}` {
			serverNs += delta(k)
		}
	}
	for _, sr := range serveRoutes {
		lbl := fmt.Sprintf(`{route=%q}`, sr.route)
		if n := delta("http_request_ns_count" + lbl); n > 0 {
			p.r.set(sr.name, delta("http_request_ns_sum"+lbl)/n/1e6, "ms")
		}
	}
	p.r.set("serve.wait_ms", (s.callNs.Seconds()*1e9-serverNs)/float64(s.calls)/1e6, "ms")
	hits, misses := m1["slotcache_hits_total"], m1["slotcache_misses_total"]
	p.r.set("slotcache.hit_ratio", hits/(hits+misses), "ratio")
	return nil
}

func (p *layerPass) traceName() string { return fmt.Sprintf("%s-seed%d", p.e.workload, p.e.seed) }

// writeTrace writes the benchmark's Chrome trace and its per-layer table
// under trace/ in the build directory, and prints the table to stderr.
func (p *layerPass) writeTrace() error {
	dir := filepath.Join(p.e.out, "trace")
	f, err := os.Create(filepath.Join(dir, p.traceName()+".json"))
	if err != nil {
		return err
	}
	if err := p.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	spans, err := readSpans(p.tr)
	if err != nil {
		return err
	}
	table := layerTable(selfTimes(spans))
	fmt.Fprint(os.Stderr, table)
	return os.WriteFile(filepath.Join(dir, p.traceName()+"-layers.txt"), []byte(table), 0o644)
}
