package main

// Async sweep jobs: POST /v1/jobs submits a benchmark × size × device
// selection that dwarfserve measures into its own store, in-process, on the
// harness event stream. Job state is an append-only event log plus a small
// status head; the SSE handler replays the log and then follows it live, so
// any number of watchers can attach at any point of the job's life and all
// see the same sequence. Completed cells are persisted by the harness
// before their cell_done event fires, which is what makes cancellation (and
// daemon shutdown) lossless: whatever the log says completed is on disk.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/suite"
)

type jobState string

const (
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// Job and SSE metric names (obsnames-checked).
const (
	mJobsCreatedTotal  = "jobs_created_total"
	mJobsRunning       = "jobs_running"
	mJobsFinishedTotal = "jobs_finished_total"
	mSSESubscribers    = "sse_subscribers"
	lblState           = "state"
)

// jobRequest is the POST /v1/jobs body. Empty axes mean "all", exactly as
// in dwarfsweep; options default to the paper methodology (50 samples,
// seed 1) so a job's cells fingerprint identically to a default sweep's.
type jobRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Sizes      []string `json:"sizes"`
	Devices    []string `json:"devices"`
	Samples    int      `json:"samples,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	// Retries sets the per-cell attempt count (with BackoffMs the base
	// backoff) — useful against a chaos plan; harmless without one.
	Retries   int     `json:"retries,omitempty"`
	BackoffMs float64 `json:"backoff_ms,omitempty"`
	// Chaos, when set, injects deterministic faults into the job's
	// measurements — the server-side face of the fault-injection layer.
	Chaos *faults.Plan `json:"chaos,omitempty"`
}

// wireEvent is the SSE/JSON form of one harness event: the summary fields
// plus the cell's median, without the full measurement payload.
type wireEvent struct {
	Kind      string  `json:"kind"`
	Benchmark string  `json:"benchmark,omitempty"`
	Size      string  `json:"size,omitempty"`
	Device    string  `json:"device,omitempty"`
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Hits      int     `json:"store_hits"`
	Misses    int     `json:"store_misses"`
	MedianNs  float64 `json:"median_ns,omitempty"`
	Attempt   int     `json:"attempt,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Failed    int     `json:"failed,omitempty"`
	State     string  `json:"state,omitempty"` // terminal job state, grid_done only
	Error     string  `json:"error,omitempty"`
}

// job is one asynchronous sweep: identity, cancel handle, and a mutex-
// guarded (event log, status head, notify channel) triple. notify is
// closed and replaced on every append, waking all followers.
type job struct {
	id      string
	req     jobRequest
	cancel  context.CancelFunc
	started time.Time

	// span is the job's serve.job trace span (nil without -trace); it
	// ends when the terminal event lands, so cancelled jobs close too.
	span *obs.Span

	mu          sync.Mutex
	state       jobState
	events      []wireEvent
	done        int
	total       int
	hits        int
	misses      int
	retries     int
	failed      int
	quarantined []string
	errMsg      string
	finished    time.Time
	notify      chan struct{}
}

// updateCountersLocked mirrors an event's cumulative counters into the
// status head. Callers hold j.mu.
func (j *job) updateCountersLocked(ev wireEvent) {
	j.done, j.total = ev.Done, ev.Total
	j.hits, j.misses = ev.Hits, ev.Misses
	j.retries, j.failed = ev.Retries, ev.Failed
	if ev.Kind == string(harness.EventDeviceQuarantined) {
		j.quarantined = append(j.quarantined, ev.Device)
	}
}

func (j *job) append(ev wireEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.updateCountersLocked(ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func (j *job) finish(state jobState, errMsg string, ev wireEvent) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.events = append(j.events, ev)
	j.updateCountersLocked(ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// follow returns the log suffix from index i, whether the job is terminal,
// and the channel that signals the next append.
func (j *job) follow(i int) ([]wireEvent, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []wireEvent
	if i < len(j.events) {
		tail = append(tail, j.events[i:]...)
	}
	return tail, j.state != jobRunning, j.notify
}

func (j *job) status() map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := map[string]any{
		"id":           j.id,
		"state":        j.state,
		"benchmarks":   j.req.Benchmarks,
		"sizes":        j.req.Sizes,
		"devices":      j.req.Devices,
		"done":         j.done,
		"total":        j.total,
		"store_hits":   j.hits,
		"store_misses": j.misses,
		"events":       len(j.events),
		"started":      j.started.UTC().Format(time.RFC3339Nano),
	}
	if j.retries > 0 {
		st["retries"] = j.retries
	}
	if j.failed > 0 {
		st["failed"] = j.failed
	}
	if len(j.quarantined) > 0 {
		st["quarantined"] = append([]string(nil), j.quarantined...)
	}
	if j.state != jobRunning {
		st["finished"] = j.finished.UTC().Format(time.RFC3339Nano)
		st["elapsed_ms"] = float64(j.finished.Sub(j.started)) / 1e6
	}
	if j.errMsg != "" {
		st["error"] = j.errMsg
	}
	return st
}

func toWire(ev harness.Event) wireEvent {
	w := wireEvent{
		Kind:      string(ev.Kind),
		Benchmark: ev.Benchmark,
		Size:      ev.Size,
		Device:    ev.Device,
		Done:      ev.Done,
		Total:     ev.Total,
		ElapsedMs: float64(ev.Elapsed) / 1e6,
		Hits:      ev.Hits,
		Misses:    ev.Misses,
	}
	w.Attempt, w.Reason = ev.Attempt, ev.Reason
	w.Retries, w.Failed = ev.Retries, ev.Failed
	if ev.Measurement != nil {
		w.MedianNs = ev.Measurement.Kernel.Median
	}
	return w
}

func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid job request: %v", err))
		return
	}
	opt := harness.DefaultOptions()
	if req.Samples > 0 {
		opt.Samples = req.Samples
	}
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	if req.Chaos != nil {
		if err := req.Chaos.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if req.Retries < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("negative retries %d", req.Retries))
		return
	}
	spec := harness.GridSpec{
		Benchmarks: req.Benchmarks,
		Sizes:      req.Sizes,
		Devices:    req.Devices,
		Options:    opt,
		Workers:    req.Workers,
		Store:      s.st,
		Metrics:    s.metrics,
		Retry: harness.RetryPolicy{
			MaxAttempts: req.Retries,
			BaseBackoff: time.Duration(req.BackoffMs * float64(time.Millisecond)),
		},
	}
	if req.Chaos != nil {
		spec.Faults = req.Chaos
	}

	s.jobMu.Lock()
	if s.draining {
		s.jobMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	jobCtx, cancel := context.WithCancel(s.jobsCtx)
	jobID := fmt.Sprintf("job-%06d", s.jobSeq+1)
	// With -trace, every job runs under a serve.job span carried by its
	// context, so the harness's grid/cell/measure spans nest beneath it.
	var span *obs.Span
	if s.tracer != nil {
		jobCtx = obs.ContextWithTracer(jobCtx, s.tracer)
		jobCtx, span = s.tracer.StartSpan(jobCtx, "serve.job", obs.String("job", jobID))
	}
	// Stream validates the selection synchronously: unknown benchmarks,
	// sizes or devices fail here, before a job is registered.
	events, err := harness.Stream(jobCtx, suite.New(), spec)
	if err != nil {
		s.jobMu.Unlock()
		span.End()
		cancel()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.jobSeq++
	j := &job{
		id:      jobID,
		req:     req,
		cancel:  cancel,
		span:    span,
		started: time.Now(),
		state:   jobRunning,
		notify:  make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.pruneJobsLocked()
	s.jobWG.Add(1)
	s.jobMu.Unlock()
	s.metrics.Counter(mJobsCreatedTotal).Inc()
	s.metrics.Gauge(mJobsRunning).Add(1)

	go s.runJob(j, events)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"state":  jobRunning,
		"status": "/v1/jobs/" + j.id,
		"events": "/v1/jobs/" + j.id + "/events",
	})
}

// runJob consumes the job's event stream to completion. The harness
// persists every measured cell before announcing it, so this loop only
// mirrors events into the log; on the terminal event it settles the job
// state and publishes a fresh query snapshot from the store, so the next
// /v1/grid, /v1/predict and /v1/schedule serve the new cells with models
// trained on them.
func (s *server) runJob(j *job, events <-chan harness.Event) {
	defer s.jobWG.Done()
	defer j.cancel()
	for ev := range events {
		if ev.Kind != harness.EventGridDone {
			if ev.Kind == harness.EventDeviceQuarantined {
				s.quarantineDevice(ev.Device, ev.Reason)
			}
			j.append(toWire(ev))
			continue
		}
		state, errMsg := jobDone, ""
		switch {
		case ev.Err == nil:
		case errors.Is(ev.Err, context.Canceled):
			state = jobCancelled
		default:
			state, errMsg = jobFailed, ev.Err.Error()
		}
		// Reload even on cancellation or failure: any cells that did
		// complete are in the store and should be served. The reload is
		// also the -compact-over enforcement point — the store only grows
		// when jobs land cells.
		if ev.Grid == nil || ev.Grid.Cells() > 0 {
			if err := s.reloadFromStore(); err != nil {
				state, errMsg = jobFailed, err.Error()
			}
			s.maybeCompact()
		}
		wev := toWire(ev)
		if ev.Grid == nil {
			// A cell failure yields no grid, so the harness event carries
			// zero counters; keep the job's running ones — they reflect
			// what actually completed and persisted before the failure.
			j.mu.Lock()
			wev.Done, wev.Hits, wev.Misses = j.done, j.hits, j.misses
			wev.Retries, wev.Failed = j.retries, j.failed
			j.mu.Unlock()
		}
		wev.State = string(state)
		wev.Error = errMsg
		j.finish(state, errMsg, wev)
		j.span.SetAttr("state", string(state))
		j.span.End()
		s.metrics.Gauge(mJobsRunning).Add(-1)
		s.metrics.Counter(obs.Name(mJobsFinishedTotal, lblState, string(state))).Inc()
	}
}

func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.jobMu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", r.PathValue("id")))
	}
	return j
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	ids := append([]string(nil), s.jobOrder...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.jobMu.Unlock()
	list := make([]map[string]any, 0, len(jobs))
	for _, j := range jobs {
		list = append(list, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(list), "jobs": list})
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.cancel()
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == jobRunning {
		state = "cancelling" // workers stop at their next context check
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": state})
}

// sseFrame writes one Server-Sent Events frame carrying v as JSON data;
// false means the stream should end (the client went away).
type sseFrame func(id uint64, event string, v any) bool

// serveSSE runs one Server-Sent Events stream: the 200 with event-stream
// headers, then step in a loop. Each step writes its pending frames and
// returns the channel that signals more, or more=false once the stream is
// complete; every step is followed by a flush. While the source is quiet a
// comment frame (": keep-alive") goes out every keep-alive interval so
// proxies and clients see a live connection. The stream ends when step
// says so or the client disconnects.
func (s *server) serveSSE(w http.ResponseWriter, r *http.Request, step func(frame sseFrame) (next <-chan struct{}, more bool)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.metrics.Gauge(mSSESubscribers).Add(1)
	defer s.metrics.Gauge(mSSESubscribers).Add(-1)

	frame := func(id uint64, event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
		return err == nil
	}
	keepAlive := time.NewTicker(s.keepAlive)
	defer keepAlive.Stop()
	for {
		next, more := step(frame)
		flusher.Flush()
		if !more {
			return
		}
		select {
		case <-next:
		case <-keepAlive.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobEvents streams the job's event log as Server-Sent Events:
// replay from the start — or, on reconnect, from the index after the
// client's Last-Event-ID — then follow live appends until the terminal
// grid_done event or client disconnect. Each event carries its log index
// as the SSE id, so a dropped client resumes exactly where it left off:
//
//	id: 17
//	event: cell_done
//	data: {"kind":"cell_done","benchmark":...}
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	sent := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		n, err := strconv.Atoi(last)
		// n == MaxInt would wrap sent to a negative log index.
		if err != nil || n < 0 || n == math.MaxInt {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid Last-Event-ID %q", last))
			return
		}
		sent = n + 1
	}
	s.serveSSE(w, r, func(frame sseFrame) (<-chan struct{}, bool) {
		// follow returns the whole tail and the terminal flag under one
		// lock, so once a terminal tail is written the log is exhausted.
		tail, terminal, next := j.follow(sent)
		for _, ev := range tail {
			if !frame(uint64(sent), ev.Kind, ev) {
				return nil, false
			}
			sent++
		}
		return next, !terminal
	})
}

// maxRetainedJobs bounds the registry of a long-lived daemon: once
// exceeded, the oldest *terminal* jobs (and their event logs) are evicted.
// Running jobs are never evicted, so the registry can exceed the cap only
// while that many sweeps are actually in flight.
const maxRetainedJobs = 64

// pruneJobsLocked evicts the oldest terminal jobs beyond maxRetainedJobs.
// Callers hold s.jobMu.
func (s *server) pruneJobsLocked() {
	excess := len(s.jobOrder) - maxRetainedJobs
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state != jobRunning
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// runningJobs counts non-terminal jobs (for the shutdown log line).
func (s *server) runningJobs() int {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == jobRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// shutdownJobs rejects new jobs, cancels every running one through its
// context, and waits for their event streams to settle. By the time it
// returns, every completed cell is in the store and every job log ends
// with a terminal grid_done event.
func (s *server) shutdownJobs() {
	s.jobMu.Lock()
	s.draining = true
	s.jobMu.Unlock()
	s.jobsCancel()
	s.jobWG.Wait()
}
