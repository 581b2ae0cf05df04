package opendwarfs

import (
	"context"
	"fmt"
	"sync"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/faults"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// Selection names the benchmark × size × device slice a Session operation
// covers. Empty axes mean "all": the whole suite, every supported size,
// all 15 catalogue devices.
type Selection struct {
	Benchmarks []string
	Sizes      []string
	Devices    []string
}

// Event re-exports the typed grid-execution event; see Session.Stream.
type Event = harness.Event

// EventKind re-exports the event discriminator.
type EventKind = harness.EventKind

// Event kinds emitted by Session.Stream (and Session.RunGrid internally).
const (
	EventCellStart         = harness.EventCellStart
	EventCellDone          = harness.EventCellDone
	EventStoreHit          = harness.EventStoreHit
	EventCellRetry         = harness.EventCellRetry
	EventCellFailed        = harness.EventCellFailed
	EventDeviceQuarantined = harness.EventDeviceQuarantined
	EventGridDone          = harness.EventGridDone
)

// RetryPolicy re-exports the per-cell measurement retry policy; see
// WithRetry.
type RetryPolicy = harness.RetryPolicy

// FailedCell re-exports the record of a cell that exhausted its attempts
// (or whose device dropped); see Grid.Failed.
type FailedCell = harness.FailedCell

// FaultInjector re-exports the deterministic fault-injection interface;
// see WithFaults.
type FaultInjector = faults.Injector

// FaultPlan re-exports the seeded declarative fault plan — the standard
// FaultInjector implementation.
type FaultPlan = faults.Plan

// Metrics re-exports the race-safe metrics registry; see WithMetrics.
type Metrics = obs.Registry

// Tracer re-exports the span tracer; see WithTracer.
type Tracer = obs.Tracer

// NewMetrics returns an empty metrics registry to attach via WithMetrics.
// Snapshot it, or render it with its WritePrometheus method, after (or
// during) runs.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTracer returns an empty span tracer to attach via WithTracer. Export
// collected spans with its WriteJSONL or WriteChromeTrace methods.
func NewTracer() *Tracer { return obs.NewTracer() }

// Session is the context-aware entry point to the suite: a configured
// measurement environment (methodology options, worker pool, optional
// persistent store) whose Run/RunGrid/Stream methods all honour
// cancellation. Run/RunGrid/Stream are safe for concurrent use; construct
// a Session with NewSession and, when a store is attached, Close it after
// in-flight runs have finished (cancel their contexts and wait first —
// Close does not wait for them).
type Session struct {
	opt     Options
	workers int
	faults  faults.Injector
	retry   harness.RetryPolicy
	metrics *obs.Registry
	tracer  *obs.Tracer

	mu     sync.Mutex // guards st/ownsSt against a concurrent Close
	st     store.CellStore
	ownsSt bool
}

// Option configures a Session; see the With* constructors.
type Option func(*Session) error

// WithStore attaches the persistent result store at dir (created if
// missing): cells already present are decoded instead of re-measured, new
// cells are persisted as they complete. The store is opened by NewSession,
// closed by Session.Close, and wrapped in the slot cache, so repeated reads
// of one cell within this session share a single decoded measurement.
func WithStore(dir string) Option {
	return func(s *Session) error {
		if s.st != nil {
			return fmt.Errorf("opendwarfs: store already configured")
		}
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		s.st, s.ownsSt = store.Cached(st), true
		return nil
	}
}

// WithWorkers sets how many cells are measured concurrently. 0 (the
// default) uses one worker per CPU; 1 runs grids sequentially. Results are
// identical at every worker count.
func WithWorkers(n int) Option {
	return func(s *Session) error {
		if n < 0 {
			return fmt.Errorf("opendwarfs: negative worker count %d", n)
		}
		s.workers = n
		return nil
	}
}

// WithSeed sets the dataset-generation seed (default 1). The seed is part
// of every cell fingerprint: changing it invalidates stored cells.
func WithSeed(seed int64) Option {
	return func(s *Session) error { s.opt.Seed = seed; return nil }
}

// WithSamples sets the samples collected per benchmark × size × device
// group; the paper uses 50 (§4.3).
func WithSamples(n int) Option {
	return func(s *Session) error {
		if n <= 0 {
			return fmt.Errorf("opendwarfs: non-positive sample count %d", n)
		}
		s.opt.Samples = n
		return nil
	}
}

// WithMinLoopNs sets the minimum simulated duration of one measurement
// loop; the paper uses two seconds (2e9).
func WithMinLoopNs(ns float64) Option {
	return func(s *Session) error {
		if ns <= 0 {
			return fmt.Errorf("opendwarfs: non-positive loop duration %g", ns)
		}
		s.opt.MinLoopNs = ns
		return nil
	}
}

// WithFunctionalBudget sets the operation budget above which functional
// execution is skipped in favour of the timing model. 0 disables
// functional execution (and with it, verification).
func WithFunctionalBudget(ops float64) Option {
	return func(s *Session) error {
		if ops < 0 {
			return fmt.Errorf("opendwarfs: negative functional budget %g", ops)
		}
		s.opt.MaxFunctionalOps = ops
		if ops == 0 {
			s.opt.Verify = false
		}
		return nil
	}
}

// WithVerify toggles serial-reference verification after functional runs.
func WithVerify(v bool) Option {
	return func(s *Session) error { s.opt.Verify = v; return nil }
}

// WithFaults injects deterministic faults into every measurement the
// session makes: transient errors, device dropouts, stragglers and power
// sensor dropouts, per the injector's verdicts. Store hits bypass
// injection. nil (the default) is the clean simulator. Injectors that
// implement `interface{ Validate() error }` (FaultPlan does) are
// validated here.
func WithFaults(inj FaultInjector) Option {
	return func(s *Session) error {
		if v, ok := inj.(interface{ Validate() error }); ok && inj != nil {
			if err := v.Validate(); err != nil {
				return err
			}
		}
		s.faults = inj
		return nil
	}
}

// WithRetry sets the per-cell retry policy: transient faults and attempt
// timeouts are retried with exponential backoff up to MaxAttempts; a cell
// that exhausts its attempts is reported in Grid.Failed instead of
// aborting the run. The zero policy makes a single attempt per cell.
func WithRetry(r RetryPolicy) Option {
	return func(s *Session) error {
		if r.MaxAttempts < 0 {
			return fmt.Errorf("opendwarfs: negative retry attempts %d", r.MaxAttempts)
		}
		if r.Jitter < 0 || r.Jitter > 1 {
			return fmt.Errorf("opendwarfs: retry jitter %g outside [0,1]", r.Jitter)
		}
		s.retry = r
		return nil
	}
}

// WithMetrics attaches a metrics registry: every grid the session runs
// derives harness counters and latency histograms into it (see package
// internal/obs for the metric families). Counters agree exactly with the
// typed event stream and the returned Grid, including partial grids under
// cancellation. One registry may be shared by many sessions; counts then
// aggregate. nil detaches metrics (the default).
func WithMetrics(m *Metrics) Option {
	return func(s *Session) error { s.metrics = m; return nil }
}

// WithTracer attaches a span tracer: grids record a harness.grid root
// with per-cell prepare/measure child spans, closed even under
// cancellation. Export with Tracer.WriteJSONL or WriteChromeTrace (the
// latter loads in Perfetto / chrome://tracing). nil (the default) falls
// back to any tracer carried by the run's context via
// obs.ContextWithTracer; absent both, tracing is off.
func WithTracer(tr *Tracer) Option {
	return func(s *Session) error { s.tracer = tr; return nil }
}

// WithOptions replaces the session's measurement options wholesale — the
// migration path for code that already builds an Options value. Later
// With* options still apply on top.
func WithOptions(opt Options) Option {
	return func(s *Session) error {
		if opt.Samples <= 0 || opt.MinLoopNs <= 0 {
			return fmt.Errorf("opendwarfs: non-positive sampling options")
		}
		s.opt = opt
		return nil
	}
}

// NewSession builds a measurement session from the paper's methodology
// defaults plus the given options.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{opt: DefaultOptions()}
	for _, o := range opts {
		if err := o(s); err != nil {
			if s.ownsSt {
				s.st.Close()
			}
			return nil, err
		}
	}
	return s, nil
}

// Close releases the session's store, if NewSession opened one. Safe to
// call on store-less sessions and more than once; must not overlap an
// in-flight Run/RunGrid/Stream (cancel and drain those first).
func (s *Session) Close() error {
	s.mu.Lock()
	st, owned := s.st, s.ownsSt
	s.st = nil
	s.mu.Unlock()
	if st == nil || !owned {
		return nil
	}
	return st.Close()
}

// Options returns a copy of the session's effective measurement options.
func (s *Session) Options() Options { return s.opt }

// spec assembles the harness grid spec for one selection.
func (s *Session) spec(sel Selection) harness.GridSpec {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	return harness.GridSpec{
		Benchmarks: sel.Benchmarks,
		Sizes:      sel.Sizes,
		Devices:    sel.Devices,
		Options:    s.opt,
		Workers:    s.workers,
		Store:      st,
		Faults:     s.faults,
		Retry:      s.retry,
		Metrics:    s.metrics,
		Tracer:     s.tracer,
	}
}

// Run measures one benchmark at one size on one device. With a store
// attached the cell is served from disk when present and persisted when
// not. Cancelling ctx aborts between measurement phases.
func (s *Session) Run(ctx context.Context, bench, size, deviceID string) (*Result, error) {
	reg := suite.New()
	b, err := reg.Get(bench)
	if err != nil {
		return nil, err
	}
	dev, err := opencl.LookupDevice(deviceID)
	if err != nil {
		return nil, err
	}
	if !dwarfs.SupportsSize(b, size) {
		return nil, fmt.Errorf("opendwarfs: %s does not support size %q (has %v)", bench, size, b.Sizes())
	}
	s.mu.Lock()
	hasStore := s.st != nil
	s.mu.Unlock()
	if hasStore || s.faults != nil || s.retry.MaxAttempts > 1 {
		// Route the single cell through the grid so the store and
		// fault/retry paths are shared with sweeps.
		g, err := harness.RunGrid(ctx, reg, s.spec(Selection{
			Benchmarks: []string{bench}, Sizes: []string{size}, Devices: []string{deviceID},
		}))
		if err != nil {
			return nil, err
		}
		if len(g.Measurements) == 1 {
			return g.Measurements[0], nil
		}
		f := g.Failed[0]
		return nil, fmt.Errorf("opendwarfs: %s/%s on %s failed after %d attempt(s): %s",
			f.Benchmark, f.Size, f.Device, f.Attempts, f.Reason)
	}
	return harness.Run(ctx, b, size, dev, s.opt)
}

// RunGrid measures the selected benchmark × size × device slice and blocks
// until it completes. When ctx is cancelled mid-grid it returns a valid
// partial Grid — exactly the completed cells, in grid order, all persisted
// when a store is attached — together with ctx's error; re-running the
// same selection afterwards store-hits precisely those cells.
func (s *Session) RunGrid(ctx context.Context, sel Selection) (*Grid, error) {
	return harness.RunGrid(ctx, suite.New(), s.spec(sel))
}

// Stream starts the selected grid and returns its typed event channel:
// EventCellStart when a cell is claimed, EventCellDone / EventStoreHit as
// cells complete (with the measurement, timing and running hit/miss
// counts), and a terminal EventGridDone carrying the resulting Grid —
// partial under cancellation — and error, after which the channel closes.
// Delivery is unbuffered, so observed events pace the run and cancelling
// after the k-th event stops the grid near cell k. Drain the channel
// until it closes (cancelling ctx makes that prompt) to observe the
// resulting grid.
func (s *Session) Stream(ctx context.Context, sel Selection) (<-chan Event, error) {
	return harness.Stream(ctx, suite.New(), s.spec(sel))
}
