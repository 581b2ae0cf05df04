package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/faults"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/store"
)

// GridSpec selects a slice of the benchmark × size × device space.
type GridSpec struct {
	// Benchmarks by name; empty = the whole suite.
	Benchmarks []string
	// Sizes; empty = every size the benchmark supports.
	Sizes []string
	// Devices by catalogue ID; empty = all 15 platforms.
	Devices []string
	Options Options
	// Workers is the number of goroutines measuring cells concurrently.
	// 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs the grid
	// sequentially in grid order, reproducing the single-threaded
	// behaviour exactly. Results are deterministic and identical at every
	// worker count — cells are pure functions of (benchmark, size,
	// device, seed), never of execution order.
	Workers int
	// Store, when non-nil, makes the run incremental: each cell's
	// fingerprint (CellKey) is looked up before measuring, hits are decoded
	// instead of recomputed, and misses are measured then persisted. An
	// unchanged grid re-swept against the same store is a 100% hit and
	// produces value-identical measurements, hence byte-identical exports.
	// Any CellStore works — a plain directory store, a Sharded fan-out, or
	// either behind store.Cached, whose Decoded fast path serves hits as
	// shared decoded cells with zero re-parsing. Assign only a live store:
	// a typed-nil pointer in the interface reads as "store attached".
	Store store.CellStore
	// Faults, when non-nil, injects deterministic failures into every
	// measurement attempt (see internal/faults); nil — the default — is
	// the clean simulator. Store hits bypass injection: a cell already
	// persisted is served from disk without re-rolling its fate.
	Faults faults.Injector
	// Retry governs per-cell retry, backoff and attempt timeouts. The
	// zero value makes exactly one attempt per cell with no timeout,
	// reproducing the non-retrying harness exactly.
	Retry RetryPolicy
	// Metrics, when non-nil, receives the run's counters and latency
	// histograms (harness_*, store_decode_ns, faults_injected_total —
	// see DESIGN.md §10). The counters are derived from the same event
	// stream consumers see, so they agree exactly with the returned
	// Grid's hit/miss/retry/failure counts, including on a cancelled
	// partial grid. A registry shared across runs aggregates fleet-wide;
	// dwarfserve hands every job its server registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per cell with prepare and
	// per-attempt measure children; export with WriteChromeTrace or
	// WriteJSONL after the run. When nil, a tracer carried by the run's
	// context (obs.ContextWithTracer) is used instead, so callers above
	// the GridSpec — schedulers, sessions — can trace without touching
	// the spec. Every span is closed by the time the run returns, even
	// under cancellation.
	Tracer *obs.Tracer
}

// Grid is a collection of measurements with lookup helpers — the data
// behind every figure in the paper.
type Grid struct {
	Measurements []*Measurement
	// StoreHits and StoreMisses count cells served from / measured into
	// GridSpec.Store; both are zero when no store was attached.
	StoreHits, StoreMisses int
	// Failed lists the cells that exhausted their measurement attempts
	// or sat on a dropped device, in grid order. A grid with failed
	// cells is still valid — exactly like a cancelled partial grid, the
	// measured cells all match the store and the failed ones were never
	// persisted.
	Failed []FailedCell
	// Retries counts retried measurement attempts across the run.
	Retries int
	// Quarantined lists the devices that went down during the run,
	// sorted; every planned cell on them appears in Failed.
	Quarantined []string
	// Elapsed is the wall-clock duration of the run that produced this
	// grid (zero for grids assembled by hand or loaded from a store).
	Elapsed time.Duration
}

// FailedCell records one cell the run could not measure: its coordinate,
// how many attempts were made, and the final fault class.
type FailedCell struct {
	Benchmark string `json:"benchmark"`
	Size      string `json:"size"`
	Device    string `json:"device"`
	Attempts  int    `json:"attempts"`
	Reason    string `json:"reason"`
}

// HitRate returns the store hit percentage of the run (0 with no store).
func (g *Grid) HitRate() float64 {
	total := g.StoreHits + g.StoreMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(g.StoreHits) / float64(total)
}

// gridCell is one planned benchmark × size × device measurement.
type gridCell struct {
	bench dwarfs.Benchmark
	size  string
	dev   *opencl.Device
}

// planCells expands a spec into the ordered cell list (grid order:
// benchmark-major, then size, then device).
func planCells(reg *dwarfs.Registry, spec GridSpec) ([]gridCell, int, error) {
	benches := reg.All()
	if len(spec.Benchmarks) > 0 {
		benches = benches[:0:0]
		for _, name := range spec.Benchmarks {
			b, err := reg.Get(name)
			if err != nil {
				return nil, 0, err
			}
			benches = append(benches, b)
		}
	}
	var devices []*opencl.Device
	if len(spec.Devices) == 0 {
		devices = opencl.AllDevices()
	} else {
		for _, id := range spec.Devices {
			d, err := opencl.LookupDevice(id)
			if err != nil {
				// sim.Lookup's message already carries the sorted catalogue.
				return nil, 0, fmt.Errorf("harness: %w", err)
			}
			devices = append(devices, d)
		}
	}

	// A size supported by only some selected benchmarks narrows those
	// benchmarks' rows; a size supported by none is a flag typo and must
	// fail loudly, like an unknown benchmark or device.
	if len(spec.Sizes) > 0 {
		valid := map[string]bool{}
		for _, b := range benches {
			for _, s := range b.Sizes() {
				valid[s] = true
			}
		}
		for _, s := range spec.Sizes {
			if !valid[s] {
				known := make([]string, 0, len(valid))
				for v := range valid {
					known = append(known, v)
				}
				sort.Strings(known)
				return nil, 0, fmt.Errorf("harness: unknown size %q (valid for the selected benchmarks: %v)", s, known)
			}
		}
	}

	var cells []gridCell
	for _, b := range benches {
		sizes := b.Sizes()
		if len(spec.Sizes) > 0 {
			sizes = sizes[:0:0]
			for _, s := range spec.Sizes {
				if !dwarfs.SupportsSize(b, s) {
					continue
				}
				sizes = append(sizes, s)
			}
		}
		for _, size := range sizes {
			for _, dev := range devices {
				cells = append(cells, gridCell{bench: b, size: size, dev: dev})
			}
		}
	}
	return cells, len(devices), nil
}

// dispatchOrder decides which cell each worker pulls next. A single worker
// walks the grid in order. Multiple workers walk it device-major (all rows'
// first device, then all rows' second device, …) so that the first W cells
// touch W different rows and their device-independent preparations run
// concurrently instead of serialising on one row's cache entry.
func dispatchOrder(nCells, nDevices, workers int) []int {
	order := make([]int, 0, nCells)
	if workers <= 1 || nDevices <= 1 {
		for i := 0; i < nCells; i++ {
			order = append(order, i)
		}
		return order
	}
	for d := 0; d < nDevices; d++ {
		for i := d; i < nCells; i += nDevices {
			order = append(order, i)
		}
	}
	return order
}

// RunGrid measures every selected cell, dispatching them across
// spec.Workers goroutines. Each row (benchmark × size) is prepared once —
// dataset, characterisation, functional verification — and shared by all
// of its devices; see Prepare/Measure. Measurements come back in grid
// order regardless of worker count, and a parallel grid is cell-for-cell
// identical to a sequential one.
//
// RunGrid is the synchronous view of the event stream: it drains Stream
// and returns the grid carried by the terminal EventGridDone. When ctx is
// cancelled mid-grid it returns a valid partial grid — exactly the cells
// that completed, in grid order, every one already persisted when a store
// is attached — together with the context's error; re-running the same
// spec afterwards store-hits precisely those cells.
func RunGrid(ctx context.Context, reg *dwarfs.Registry, spec GridSpec) (*Grid, error) {
	events, err := Stream(ctx, reg, spec)
	if err != nil {
		return nil, err
	}
	for ev := range events {
		if ev.Kind == EventGridDone {
			return ev.Grid, ev.Err
		}
	}
	// Unreachable: Stream always terminates with EventGridDone.
	return nil, fmt.Errorf("harness: event stream closed without a grid_done event")
}

// runGrid is the worker-pool core shared by Stream (and through it,
// RunGrid). It emits one CellStart per claimed cell and one CellDone or
// StoreHit per completed cell via emit — which must be non-nil and is
// called from worker goroutines, serialised by an internal mutex.
func runGrid(ctx context.Context, spec GridSpec, cells []gridCell, nDevices int, emit func(Event)) (*Grid, error) {
	started := now()
	if len(cells) == 0 {
		return &Grid{}, ctx.Err()
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	// Observability: metric handles are resolved once here (nil registry
	// yields nil metrics whose methods no-op, so the hot path never
	// branches on "is instrumentation on"), the injector is wrapped to
	// count injected faults by kind, and the tracer — from the spec, or
	// carried by ctx for callers above the spec — roots a run-level span
	// that every cell span parents under.
	mo := newGridMetrics(spec.Metrics)
	// The store's Decoded capability is resolved once per run, not per
	// cell: a cached store serves hits as shared decoded cells (zero
	// re-parsing), every other store decodes each hit's payload.
	var decodedStore store.Decoded
	if spec.Store != nil {
		decodedStore, _ = spec.Store.(store.Decoded)
	}
	injector := spec.Faults
	if spec.Metrics != nil {
		injector = faults.Counted(injector, spec.Metrics)
	}
	tracer := spec.Tracer
	if tracer == nil {
		tracer = obs.TracerFrom(ctx)
	}
	if tracer != nil {
		ctx = obs.ContextWithTracer(ctx, tracer)
		var gspan *obs.Span
		ctx, gspan = obs.StartSpan(ctx, "harness.grid",
			obs.Int("cells", len(cells)), obs.Int("workers", workers))
		defer gspan.End()
	}

	var (
		cache   = newPrepCache()
		results = make([]*Measurement, len(cells))
		failed  = make([]*FailedCell, len(cells))
		errs    = make([]error, len(cells))
		order   = dispatchOrder(len(cells), nDevices, workers)
		next    atomic.Int64
		done    atomic.Int64
		hits    atomic.Int64
		misses  atomic.Int64
		retries atomic.Int64
		failedN atomic.Int64
		stopped atomic.Bool
		quarMu  sync.Mutex
		quarSet = map[string]bool{}
		emitMu  sync.Mutex
		wg      sync.WaitGroup
	)

	// send serialises event emission. Completion counters are assigned
	// under the same mutex, so Done (and the hit/miss snapshot) is
	// monotonically non-decreasing in emission order — consumers never
	// see "cell 2/n" before "cell 1/n".
	send := func(ev Event) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if ev.Kind == EventCellDone || ev.Kind == EventStoreHit {
			ev.Done = int(done.Add(1))
			ev.Hits, ev.Misses = int(hits.Load()), int(misses.Load())
		}
		// Metrics are derived from the event stream itself — one bump per
		// event, under the same mutex — so the registry's counters agree
		// exactly with what consumers saw and with the returned grid.
		switch ev.Kind {
		case EventCellDone:
			mo.cells.Inc()
			mo.deviceCells(ev.Device)
			if spec.Store != nil {
				mo.misses.Inc()
			}
			mo.cellNs.Observe(float64(ev.Elapsed))
		case EventStoreHit:
			mo.cells.Inc()
			mo.deviceCells(ev.Device)
			mo.hits.Inc()
			mo.cellNs.Observe(float64(ev.Elapsed))
		case EventCellRetry:
			mo.retries.Inc()
		case EventCellFailed:
			mo.failed.Inc()
		case EventDeviceQuarantined:
			mo.quarantines.Inc()
		}
		ev.Retries, ev.Failed = int(retries.Load()), int(failedN.Load())
		emit(ev)
	}

	// quarantine marks a device down; the first caller per device emits
	// the device_quarantined event. Subsequent cells on the device still
	// roll their own (deterministic) attempt-1 verdict rather than
	// consulting this set, so per-cell event sequences are identical at
	// every worker count — the set exists for the single event and the
	// grid's Quarantined listing, not for control flow.
	quarantine := func(dev string, reason string) {
		quarMu.Lock()
		already := quarSet[dev]
		quarSet[dev] = true
		quarMu.Unlock()
		if already {
			return
		}
		send(Event{Kind: EventDeviceQuarantined, Device: dev, Reason: reason, Total: len(cells), Done: int(done.Load())})
	}

	cellEvent := func(kind EventKind, c gridCell) Event {
		return Event{
			Kind:      kind,
			Benchmark: c.bench.Name(),
			Size:      c.size,
			Device:    c.dev.ID(),
			Done:      int(done.Load()),
			Total:     len(cells),
			Hits:      int(hits.Load()),
			Misses:    int(misses.Load()),
		}
	}

	runCell := func(i int) (err error) {
		c := cells[i]
		cellStart := now()
		// Workers run on their own goroutines, where an escaping panic
		// would abort the process with no chance for the caller to
		// recover; convert it to a cell error instead.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("harness: grid cell %s/%s/%s panicked: %v", c.bench.Name(), c.size, c.dev.ID(), r)
			}
		}()
		// The cell span parents every phase below; attr construction is
		// gated on the tracer so the untraced path stays allocation-free.
		cctx := ctx
		var cspan *obs.Span
		if tracer != nil {
			cctx, cspan = obs.StartSpan(ctx, "harness.cell",
				obs.String("benchmark", c.bench.Name()),
				obs.String("size", c.size),
				obs.String("device", c.dev.ID()))
		}
		defer cspan.End()
		send(cellEvent(EventCellStart, c))
		var key string
		if spec.Store != nil {
			key = CellKey(c.bench.Name(), c.size, c.dev.Spec, spec.Options)
			var m *Measurement
			decodeStart := now()
			if decodedStore != nil {
				// Zero-copy hit: the slot cache hands back the shared
				// decoded cell; only the first reader of a key in the
				// process ever pays the JSON decode.
				if v, ok, derr := decodedStore.GetDecoded(key, decodeMeasurementSlot); derr == nil && ok {
					m = v.(*Measurement)
				}
			} else if raw, ok := spec.Store.Get(key); ok {
				if mm, derr := DecodeMeasurement(raw); derr == nil {
					m = mm
				}
			}
			// A nil m with the key present means the payload was
			// undecodable under the current code: recompute and overwrite
			// below.
			if m != nil {
				mo.decodeNs.Observe(float64(since(decodeStart)))
				cspan.SetAttr("outcome", "store_hit")
				results[i] = m
				hits.Add(1)
				ev := cellEvent(EventStoreHit, c)
				ev.Elapsed = since(cellStart)
				ev.Measurement = m
				send(ev)
				return nil
			}
		}
		var pspan *obs.Span
		pctx := cctx
		if tracer != nil {
			pctx, pspan = obs.StartSpan(cctx, "harness.prepare")
		}
		prepStart := now()
		p, err := cache.prepare(pctx, c.bench, c.size, spec.Options)
		mo.prepareNs.Observe(float64(since(prepStart)))
		pspan.End()
		if err != nil {
			return fmt.Errorf("harness: grid cell %s/%s/%s: %w", c.bench.Name(), c.size, c.dev.ID(), err)
		}

		// measureOnce runs one attempt: the injector's verdict first,
		// then the model under the per-attempt deadline. Fault decisions
		// are pure functions of (cell, attempt), so the attempt sequence
		// a cell sees is identical at every worker count.
		measureOnce := func(attempt int) (*Measurement, error) {
			mctx := cctx
			var mspan *obs.Span
			if tracer != nil {
				mctx, mspan = obs.StartSpan(cctx, "harness.measure", obs.Int("attempt", attempt))
			}
			defer mspan.End()
			var dec faults.Decision
			if injector != nil {
				dec = injector.Decide(c.bench.Name(), c.size, c.dev.ID(), attempt)
			}
			if dec.Dropped {
				return nil, faults.ErrDeviceDown
			}
			actx, cancel := mctx, func() {}
			if spec.Retry.AttemptTimeout > 0 {
				actx, cancel = context.WithTimeout(mctx, spec.Retry.AttemptTimeout)
			}
			defer cancel()
			if dec.Hang {
				<-actx.Done()
				return nil, actx.Err()
			}
			if dec.Transient {
				return nil, faults.ErrTransient
			}
			measureStart := now()
			m, err := p.Measure(actx, c.dev, spec.Options)
			mo.measureNs.Observe(float64(since(measureStart)))
			if err != nil {
				return nil, err
			}
			applyDecision(m, dec)
			return m, nil
		}

		// failCell records a fault-class failure: the cell stays out of
		// the grid and the store, the run continues.
		failCell := func(attempt int, reason string) {
			cspan.SetAttr("outcome", "failed")
			cspan.SetAttr("reason", reason)
			failed[i] = &FailedCell{
				Benchmark: c.bench.Name(), Size: c.size, Device: c.dev.ID(),
				Attempts: attempt, Reason: reason,
			}
			failedN.Add(1)
			ev := cellEvent(EventCellFailed, c)
			ev.Elapsed = since(cellStart)
			ev.Attempt, ev.Reason = attempt, reason
			send(ev)
		}

		for attempt := 1; ; attempt++ {
			m, aerr := measureOnce(attempt)
			if aerr == nil {
				if spec.Store != nil {
					raw, err := EncodeMeasurement(m)
					if err != nil {
						return err
					}
					if err := spec.Store.Put(store.Record{
						Key: key, Benchmark: m.Benchmark, Size: m.Size, Device: m.Device.ID,
						Schema: StoreSchemaVersion, Value: raw,
					}); err != nil {
						return fmt.Errorf("harness: grid cell %s/%s/%s: %w", c.bench.Name(), c.size, c.dev.ID(), err)
					}
					// A miss only counts once the measurement is persisted:
					// under cancellation, hits + misses must equal exactly the
					// completed cells.
					misses.Add(1)
				}
				cspan.SetAttr("outcome", "measured")
				results[i] = m
				ev := cellEvent(EventCellDone, c)
				ev.Elapsed = since(cellStart)
				ev.Measurement = m
				send(ev)
				return nil
			}
			if ctx.Err() != nil {
				// The run was cancelled: not a cell failure (and not a
				// fault), exactly as before — the cell is simply not
				// part of the partial grid.
				return ctx.Err()
			}
			if errors.Is(aerr, faults.ErrDeviceDown) {
				quarantine(c.dev.ID(), "device down")
				failCell(attempt, "device down")
				return nil
			}
			var reason string
			switch {
			case errors.Is(aerr, faults.ErrTransient):
				reason = "transient fault"
			case errors.Is(aerr, context.DeadlineExceeded):
				// The attempt's own deadline; the parent context was
				// checked live above.
				reason = "attempt timeout"
			default:
				// A genuine harness/model error: abort the grid, as a
				// non-faulted run would.
				return fmt.Errorf("harness: grid cell %s/%s/%s: %w", c.bench.Name(), c.size, c.dev.ID(), aerr)
			}
			if attempt >= spec.Retry.attempts() {
				failCell(attempt, reason)
				return nil
			}
			retries.Add(1)
			rev := cellEvent(EventCellRetry, c)
			rev.Attempt, rev.Reason = attempt, reason
			send(rev)
			if d := spec.Retry.backoff(c.bench.Name(), c.size, c.dev.ID(), attempt+1); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				}
			}
		}
	}

	worker := func() {
		defer wg.Done()
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			n := int(next.Add(1)) - 1
			if n >= len(order) {
				return
			}
			i := order[n]
			if err := runCell(i); err != nil {
				// A cell aborted by cancellation is not a cell failure:
				// the cell is simply not part of the partial grid.
				if ctx.Err() == nil {
					errs[i] = err
				}
				stopped.Store(true)
				return
			}
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	// Error selection: the earliest failing cell in grid order among
	// those attempted. With Workers: 1 this is exactly the sequential
	// harness's first error; under concurrency which cells were attempted
	// before the stop flag landed depends on scheduling, so a different
	// (equally genuine) cell's error may surface across runs.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	g := &Grid{
		StoreHits:   int(hits.Load()),
		StoreMisses: int(misses.Load()),
		Retries:     int(retries.Load()),
		Elapsed:     since(started),
	}
	// Failures and quarantines apply to partial (cancelled) grids too:
	// a cell that failed before the cancellation genuinely failed.
	for _, f := range failed {
		if f != nil {
			g.Failed = append(g.Failed, *f)
		}
	}
	for dev := range quarSet {
		g.Quarantined = append(g.Quarantined, dev)
	}
	sort.Strings(g.Quarantined)
	// Exactly the completed cells, grid order — partial under
	// cancellation, missing only the failed cells otherwise. Every
	// measurement was persisted before its CellDone event fired, so the
	// store and the returned grid agree.
	g.Measurements = make([]*Measurement, 0, done.Load())
	for _, m := range results {
		if m != nil {
			g.Measurements = append(g.Measurements, m)
		}
	}
	return g, ctx.Err()
}

// Cells returns the number of measured cells.
func (g *Grid) Cells() int { return len(g.Measurements) }

// Find returns the measurement for a cell, or nil. The miss path is
// allocation-free.
func (g *Grid) Find(bench, size, deviceID string) *Measurement {
	for _, m := range g.Measurements {
		if m.Benchmark == bench && m.Size == size && m.Device.ID == deviceID {
			return m
		}
	}
	return nil
}

// ByBenchmark returns all measurements of one benchmark, grid order. The
// miss path is allocation-free, and hits allocate exactly once.
func (g *Grid) ByBenchmark(bench string) []*Measurement {
	n := 0
	for _, m := range g.Measurements {
		if m.Benchmark == bench {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*Measurement, 0, n)
	for _, m := range g.Measurements {
		if m.Benchmark == bench {
			out = append(out, m)
		}
	}
	return out
}

// Merge absorbs another grid's measurements, keyed by cell coordinate
// (benchmark × size × device): a cell present in both grids is replaced by
// o's copy (last wins, in place, preserving g's order), new cells are
// appended in o's order. Store hit/miss and retry counters accumulate;
// quarantined-device sets union. Failures merge by the same coordinate
// rule (o's record wins) except that a measurement always supersedes a
// failure — a cell measured by either grid is not failed in the merge,
// whichever run failed it first. Merging grids measured under different
// options is the caller's responsibility — the coordinate cannot
// distinguish them.
func (g *Grid) Merge(o *Grid) {
	idx := make(map[string]int, len(g.Measurements))
	for i, m := range g.Measurements {
		idx[mergeKey(m)] = i
	}
	for _, m := range o.Measurements {
		if i, ok := idx[mergeKey(m)]; ok {
			g.Measurements[i] = m
			continue
		}
		idx[mergeKey(m)] = len(g.Measurements)
		g.Measurements = append(g.Measurements, m)
	}
	g.StoreHits += o.StoreHits
	g.StoreMisses += o.StoreMisses
	g.Retries += o.Retries

	if len(g.Failed) > 0 || len(o.Failed) > 0 {
		fidx := make(map[string]int)
		merged := make([]FailedCell, 0, len(g.Failed)+len(o.Failed))
		for _, f := range g.Failed {
			key := f.Benchmark + "\x00" + f.Size + "\x00" + f.Device
			if _, measured := idx[key]; measured {
				continue
			}
			fidx[key] = len(merged)
			merged = append(merged, f)
		}
		for _, f := range o.Failed {
			key := f.Benchmark + "\x00" + f.Size + "\x00" + f.Device
			if _, measured := idx[key]; measured {
				continue
			}
			if i, ok := fidx[key]; ok {
				merged[i] = f
				continue
			}
			fidx[key] = len(merged)
			merged = append(merged, f)
		}
		g.Failed = merged
	}
	if len(o.Quarantined) > 0 {
		seen := make(map[string]bool, len(g.Quarantined)+len(o.Quarantined))
		for _, d := range g.Quarantined {
			seen[d] = true
		}
		for _, d := range o.Quarantined {
			if !seen[d] {
				seen[d] = true
				g.Quarantined = append(g.Quarantined, d)
			}
		}
		sort.Strings(g.Quarantined)
	}
}

func mergeKey(m *Measurement) string {
	return m.Benchmark + "\x00" + m.Size + "\x00" + m.Device.ID
}
