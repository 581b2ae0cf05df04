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
	// either behind store.Cached, which serves hits as shared decoded
	// cells with zero re-parsing. Assign only a live store:
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
// called from worker goroutines, serialised by the run's emit mutex.
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
	// that every cell span parents under. spec is the run's own copy.
	if spec.Metrics != nil {
		spec.Faults = faults.Counted(spec.Faults, spec.Metrics)
	}
	if spec.Tracer == nil {
		spec.Tracer = obs.TracerFrom(ctx)
	}
	r := &gridRun{
		spec:  spec,
		cells: cells,
		emit:  emit,
		mo:    newGridMetrics(spec.Metrics),
		cache: newPrepCache(),
		slots: make([]cellSlot, len(cells)),
		tally: runTally{quarantined: map[string]bool{}},
	}
	if spec.Tracer != nil {
		ctx = obs.ContextWithTracer(ctx, spec.Tracer)
		var gspan *obs.Span
		ctx, gspan = obs.StartSpan(ctx, "harness.grid",
			obs.Int("cells", len(cells)), obs.Int("workers", workers))
		defer gspan.End()
	}
	r.dispatch(ctx, dispatchOrder(len(cells), nDevices, workers), workers)
	return r.collect(ctx, started)
}

// gridRun is one execution of a planned grid. Its methods are the run's
// stages: dispatch hands cells to workers, runCell takes one cell from
// the store lookup through preparation and its attempt loop, attempt
// makes one measurement attempt, and collect assembles the Grid.
type gridRun struct {
	spec  GridSpec // Faults and Tracer resolved by runGrid
	cells []gridCell
	emit  func(Event)
	mo    gridMetrics
	cache *prepCache

	slots   []cellSlot
	next    atomic.Int64 // dispatch cursor into the order
	stopped atomic.Bool  // a cell errored: workers stop claiming cells

	emitMu sync.Mutex
	tally  runTally // guarded by emitMu; changed only by send
}

// cellSlot is one cell's outcome — its measurement, its fault-class
// failure, or the error that aborts the grid — written only by the worker
// that ran the cell and read by collect after every worker has returned.
type cellSlot struct {
	m      *Measurement
	failed *FailedCell
	err    error
}

// runTally is the run's one set of counters; only send changes it.
type runTally struct {
	done, hits, misses, retries, failed int
	quarantined                         map[string]bool
}

// send is the only place the run's counters change. Under the emit mutex
// it derives the tally update from the event kind, bumps the matching
// metrics, stamps Total and the counters on the event and emits it — so
// Done is monotonically non-decreasing in emission order (consumers never
// see "cell 2/n" before "cell 1/n"), and the event stream, the registry's
// counters and the returned Grid all read the one tally. A
// DeviceQuarantined event for a device already down is dropped: each
// device is announced once per run.
func (r *gridRun) send(ev Event) {
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	t := &r.tally
	switch ev.Kind {
	case EventCellDone, EventStoreHit:
		t.done++
		r.mo.cells.Inc()
		r.mo.deviceCells(ev.Device)
		r.mo.cellNs.Observe(float64(ev.Elapsed))
		if ev.Kind == EventStoreHit {
			t.hits++
			r.mo.hits.Inc()
		} else if r.spec.Store != nil {
			t.misses++
			r.mo.misses.Inc()
		}
	case EventCellRetry:
		t.retries++
		r.mo.retries.Inc()
	case EventCellFailed:
		t.failed++
		r.mo.failed.Inc()
	case EventDeviceQuarantined:
		if t.quarantined[ev.Device] {
			return
		}
		t.quarantined[ev.Device] = true
		r.mo.quarantines.Inc()
	}
	ev.Done, ev.Total = t.done, len(r.cells)
	ev.Hits, ev.Misses = t.hits, t.misses
	ev.Retries, ev.Failed = t.retries, t.failed
	//lint:allow locksend emitting under the mutex keeps events in tally order; Stream's emit also selects on ctx.Done
	r.emit(ev)
}

// cellEvent starts an event about cell c; send fills in the counters.
func cellEvent(kind EventKind, c gridCell) Event {
	return Event{Kind: kind, Benchmark: c.bench.Name(), Size: c.size, Device: c.dev.ID()}
}

// dispatch runs the worker pool: each worker claims the next cell of
// order until the order is exhausted, the run is cancelled, or a cell
// has errored.
func (r *gridRun) dispatch(ctx context.Context, order []int, workers int) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !r.stopped.Load() && ctx.Err() == nil {
				n := int(r.next.Add(1)) - 1
				if n >= len(order) {
					return
				}
				i := order[n]
				if err := r.runCell(ctx, i); err != nil {
					// A cell aborted by cancellation is not a cell
					// failure: the cell is simply not part of the
					// partial grid.
					if ctx.Err() == nil {
						r.slots[i].err = err
					}
					r.stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// runCell takes cell i through the store lookup, preparation and the
// attempt loop. It returns nil when the cell was measured, served from
// the store or failed by a fault; a non-nil error aborts the grid.
func (r *gridRun) runCell(ctx context.Context, i int) (err error) {
	c := r.cells[i]
	cellStart := now()
	defer func() {
		// Workers run on their own goroutines, where an escaping panic
		// would abort the process with no chance for the caller to
		// recover; convert it to a cell error instead.
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
		if err != nil {
			err = fmt.Errorf("harness: grid cell %s/%s/%s: %w", c.bench.Name(), c.size, c.dev.ID(), err)
		}
	}()
	// The cell span parents every phase below; attr construction is
	// gated on the tracer so the untraced path stays allocation-free.
	var cspan *obs.Span
	if r.spec.Tracer != nil {
		ctx, cspan = obs.StartSpan(ctx, "harness.cell",
			obs.String("benchmark", c.bench.Name()),
			obs.String("size", c.size),
			obs.String("device", c.dev.ID()))
	}
	defer cspan.End()
	r.send(cellEvent(EventCellStart, c))

	var key string
	if r.spec.Store != nil {
		key = CellKey(c.bench.Name(), c.size, c.dev.Spec, r.spec.Options)
		decodeStart := now()
		// A payload that no longer decodes reads as a miss: the cell is
		// re-measured below and its record overwritten.
		if v, ok, derr := r.spec.Store.GetDecoded(key, decodeMeasurementSlot); derr == nil && ok {
			r.mo.decodeNs.Observe(float64(since(decodeStart)))
			cspan.SetAttr("outcome", "store_hit")
			r.complete(i, EventStoreHit, v.(*Measurement), cellStart)
			return nil
		}
	}
	p, err := r.prepare(ctx, c)
	if err != nil {
		return err
	}

	for attempt := 1; ; attempt++ {
		m, aerr := r.attempt(ctx, p, c, attempt)
		if aerr == nil {
			if r.spec.Store != nil {
				if err := r.persist(key, m); err != nil {
					return err
				}
			}
			cspan.SetAttr("outcome", "measured")
			r.complete(i, EventCellDone, m, cellStart)
			return nil
		}
		if ctx.Err() != nil {
			// The run was cancelled: not a cell failure (and not a
			// fault) — the cell is simply not part of the partial grid.
			return ctx.Err()
		}
		final := attempt >= r.spec.Retry.MaxAttempts
		var reason string
		switch {
		case errors.Is(aerr, faults.ErrDeviceDown):
			// Retrying a dead device is pointless: quarantine it and
			// fail the cell now.
			reason, final = "device down", true
			r.send(Event{Kind: EventDeviceQuarantined, Device: c.dev.ID(), Reason: reason})
		case errors.Is(aerr, faults.ErrTransient):
			reason = "transient fault"
		case errors.Is(aerr, context.DeadlineExceeded):
			// The attempt's own deadline; the parent context was
			// checked live above.
			reason = "attempt timeout"
		default:
			// A genuine harness/model error: abort the grid, as a
			// non-faulted run would.
			return aerr
		}
		if final {
			cspan.SetAttr("outcome", "failed")
			cspan.SetAttr("reason", reason)
			r.fail(i, attempt, reason, cellStart)
			return nil
		}
		ev := cellEvent(EventCellRetry, c)
		ev.Attempt, ev.Reason = attempt, reason
		r.send(ev)
		if err := r.spec.Retry.pause(ctx, c.bench.Name(), c.size, c.dev.ID(), attempt+1); err != nil {
			return err
		}
	}
}

// prepare returns cell c's row preparation, shared with the row's other
// devices through the run's cache.
func (r *gridRun) prepare(ctx context.Context, c gridCell) (*Preparation, error) {
	var pspan *obs.Span
	if r.spec.Tracer != nil {
		ctx, pspan = obs.StartSpan(ctx, "harness.prepare")
	}
	defer pspan.End()
	start := now()
	p, err := r.cache.prepare(ctx, c.bench, c.size, r.spec.Options)
	r.mo.prepareNs.Observe(float64(since(start)))
	return p, err
}

// fail records a fault-class failure of cell i after attempt: the cell
// stays out of the grid and the store, and the run continues.
func (r *gridRun) fail(i, attempt int, reason string, cellStart time.Time) {
	c := r.cells[i]
	r.slots[i].failed = &FailedCell{
		Benchmark: c.bench.Name(), Size: c.size, Device: c.dev.ID(),
		Attempts: attempt, Reason: reason,
	}
	ev := cellEvent(EventCellFailed, c)
	ev.Elapsed = since(cellStart)
	ev.Attempt, ev.Reason = attempt, reason
	r.send(ev)
}

// complete records cell i's measurement and announces it: kind is
// EventStoreHit for a decoded cell, EventCellDone for a measured one.
func (r *gridRun) complete(i int, kind EventKind, m *Measurement, cellStart time.Time) {
	r.slots[i].m = m
	ev := cellEvent(kind, r.cells[i])
	ev.Elapsed = since(cellStart)
	ev.Measurement = m
	r.send(ev)
}

// persist writes a measured cell to the store under key. It runs before
// the cell's CellDone event, so a miss counts only once persisted: under
// cancellation, hits + misses equal exactly the completed cells.
func (r *gridRun) persist(key string, m *Measurement) error {
	raw, err := EncodeMeasurement(m)
	if err != nil {
		return err
	}
	return r.spec.Store.Put(store.Record{
		Key: key, Benchmark: m.Benchmark, Size: m.Size, Device: m.Device.ID,
		Schema: StoreSchemaVersion, Value: raw,
	})
}

// attempt makes one measurement attempt: the injector's verdict first,
// then the model under the per-attempt deadline. Fault decisions are pure
// functions of (cell, attempt), so the attempt sequence a cell sees is
// identical at every worker count.
func (r *gridRun) attempt(ctx context.Context, p *Preparation, c gridCell, attempt int) (*Measurement, error) {
	var mspan *obs.Span
	if r.spec.Tracer != nil {
		ctx, mspan = obs.StartSpan(ctx, "harness.measure", obs.Int("attempt", attempt))
	}
	defer mspan.End()
	var dec faults.Decision
	if r.spec.Faults != nil {
		dec = r.spec.Faults.Decide(c.bench.Name(), c.size, c.dev.ID(), attempt)
	}
	if dec.Dropped {
		return nil, faults.ErrDeviceDown
	}
	if r.spec.Retry.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.spec.Retry.AttemptTimeout)
		defer cancel()
	}
	if dec.Hang {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if dec.Transient {
		return nil, faults.ErrTransient
	}
	measureStart := now()
	m, err := p.Measure(ctx, c.dev, r.spec.Options)
	r.mo.measureNs.Observe(float64(since(measureStart)))
	if err != nil {
		return nil, err
	}
	applyDecision(m, dec)
	return m, nil
}

// collect assembles the run's Grid once every worker has returned.
//
// Error selection: the earliest failing cell in grid order among those
// attempted. With Workers: 1 this is exactly the sequential harness's
// first error; under concurrency which cells were attempted before the
// stop flag landed depends on scheduling, so a different (equally
// genuine) cell's error may surface across runs.
func (r *gridRun) collect(ctx context.Context, started time.Time) (*Grid, error) {
	t := &r.tally
	g := &Grid{
		Measurements: make([]*Measurement, 0, t.done),
		StoreHits:    t.hits,
		StoreMisses:  t.misses,
		Retries:      t.retries,
		Elapsed:      since(started),
	}
	// Exactly the completed cells, grid order — partial under
	// cancellation, missing only the failed cells otherwise. Every
	// measurement was persisted before its CellDone event fired, so the
	// store and the returned grid agree. Failures and quarantines apply
	// to partial (cancelled) grids too: a cell that failed before the
	// cancellation genuinely failed.
	for _, s := range r.slots {
		switch {
		case s.err != nil:
			return nil, s.err
		case s.m != nil:
			g.Measurements = append(g.Measurements, s.m)
		case s.failed != nil:
			g.Failed = append(g.Failed, *s.failed)
		}
	}
	for dev := range t.quarantined {
		g.Quarantined = append(g.Quarantined, dev)
	}
	sort.Strings(g.Quarantined)
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
