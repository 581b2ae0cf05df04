package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/sim"
)

// Serve workload shape.
const (
	heldOutDevices = 2   // devices left out of the served store, so predictions extrapolate
	warmPredicts   = 150 // warm /v1/predict requests per cycle
	cellsPageLimit = 100 // /v1/cells page size
	minCycles      = 5   // cycles a serve_predict run makes however short its budget
)

// servedDevices lists the catalogue minus heldOutDevices devices chosen by
// the seed, in catalogue order.
func servedDevices(seed int64) []string {
	all := sim.Devices()
	rng := rand.New(rand.NewSource(datasetSeed(seed, streamServe, 1)))
	held := map[int]bool{}
	for len(held) < heldOutDevices {
		held[rng.Intn(len(all))] = true
	}
	var ids []string
	for i, d := range all {
		if !held[i] {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// row is one benchmark × size of the grid.
type row struct{ bench, size string }

func gridRows(reg *dwarfs.Registry) []row {
	var rows []row
	for _, b := range reg.All() {
		for _, s := range b.Sizes() {
			rows = append(rows, row{b.Name(), s})
		}
	}
	return rows
}

// servePlan is a serve run's seeded traffic: the dataset seed jobs sweep
// with, the fixed predict query and schedule body whose answers must not
// change across generations, and the rng the per-cycle choices come from.
type servePlan struct {
	datasetSeed int64
	served      []string // devices in the store
	all         []string // every catalogue device
	rows        []row
	query       url.Values // fixed cold predict, on a held-out device
	schedule    []byte     // fixed /v1/schedule body
	rng         *rand.Rand
}

func newServePlan(seed int64, reg *dwarfs.Registry) *servePlan {
	p := &servePlan{
		datasetSeed: datasetSeed(seed, streamServe, 0),
		served:      servedDevices(seed),
		rows:        gridRows(reg),
		rng:         rand.New(rand.NewSource(datasetSeed(seed, streamServe, 2))),
	}
	served := map[string]bool{}
	for _, d := range p.served {
		served[d] = true
	}
	var held []string
	for _, d := range sim.Devices() {
		p.all = append(p.all, d.ID)
		if !served[d.ID] {
			held = append(held, d.ID)
		}
	}
	q := p.rows[p.rng.Intn(len(p.rows))]
	p.query = url.Values{"bench": {q.bench}, "size": {q.size}, "device": {held[p.rng.Intn(len(held))]}}
	type task struct {
		Benchmark string `json:"benchmark"`
		Size      string `json:"size"`
		Count     int    `json:"count"`
	}
	var tasks []task
	for range 6 {
		t := p.rows[p.rng.Intn(len(p.rows))]
		tasks = append(tasks, task{t.bench, t.size, 1 + p.rng.Intn(4)})
	}
	p.schedule, _ = json.Marshal(map[string]any{"tasks": tasks, "policy": "heft"})
	return p
}

// dwarfserve is a running dwarfserve child process and the benchmark's one
// keep-alive connection to it.
type dwarfserve struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    string

	calls  int           // requests made through call
	callNs time.Duration // their summed client-side latency
}

// startServe starts dwarfserve over the store at dir and waits until
// /v1/status answers, returning the start-to-ready time. traceFile, when
// set, is passed as -trace.
func startServe(ctx context.Context, e *env, dir, traceFile string) (*dwarfserve, time.Duration, error) {
	var lastErr error
	for range 3 { // a port picked free can be taken before dwarfserve binds it
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		args := []string{"-store", dir, "-addr", fmt.Sprintf("127.0.0.1:%d", port)}
		if traceFile != "" {
			args = append(args, "-trace", traceFile)
		}
		s := &dwarfserve{
			cmd:    childCommand(context.Background(), filepath.Join(e.out, "dwarfserve"), args...),
			base:   fmt.Sprintf("http://127.0.0.1:%d", port),
			exited: make(chan struct{}),
			log:    filepath.Join(e.work, fmt.Sprintf("dwarfserve-%d.log", port)),
			client: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
		}
		logf, err := os.Create(s.log)
		if err != nil {
			return nil, 0, err
		}
		s.cmd.Stdout, s.cmd.Stderr = logf, logf
		t := time.Now()
		err = s.cmd.Start()
		logf.Close()
		if err != nil {
			return nil, 0, err
		}
		go func() { s.cmd.Wait(); close(s.exited) }()
		if err := s.awaitReady(ctx); err != nil {
			lastErr = err
			s.stop()
			continue
		}
		return s, time.Since(t), nil
	}
	return nil, 0, fmt.Errorf("dwarfserve did not start: %w", lastErr)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *dwarfserve) awaitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("dwarfserve exited: %s", s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := s.client.Get(s.base + "/v1/status"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("dwarfserve not ready after 60s")
}

func (s *dwarfserve) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// stop shuts dwarfserve down gracefully (SIGTERM, which also writes its
// -trace file) and waits for it to exit, killing it after 20 s.
func (s *dwarfserve) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// call makes one request over the benchmark's connection and returns the
// body and the client-side latency. A non-2xx status is a failed check.
func (s *dwarfserve) call(method, path string, body []byte, r *result) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.Attempted++
	t := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		r.Failed++
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	s.calls++
	s.callNs += d
	if err != nil {
		r.Failed++
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		r.Failed++
		return nil, d, checkf("serve: %s %s answered %d: %.200s", method, path, resp.StatusCode, b)
	}
	return b, d, nil
}

// cycleTimes holds one serve cycle's client-side latencies.
type cycleTimes struct {
	job, predictCold, scheduleCold, scheduleWarm time.Duration
	predictWarm, query                           []time.Duration
	total                                        time.Duration
}

// serveChecks carries the answers that must not change across generations.
type serveChecks struct {
	predicted, schedule, grid string
}

// cycle runs one serve cycle: an all-hit job (which reloads the snapshot
// and bumps the generation), a cold predict and a cold schedule, warm
// predicts over the seeded mix, a warm schedule, then /v1/cells pages and
// /v1/grid.
func (p *servePlan) cycle(s *dwarfserve, warm int, chk *serveChecks, r *result) (cycleTimes, error) {
	var ct cycleTimes
	begin := time.Now()

	dev := p.served[p.rng.Intn(len(p.served))]
	cell := p.rows[p.rng.Intn(len(p.rows))]
	jobBody, _ := json.Marshal(map[string]any{
		"benchmarks": []string{cell.bench}, "sizes": []string{cell.size}, "devices": []string{dev},
		"seed": p.datasetSeed,
	})
	t := time.Now()
	b, _, err := s.call("POST", "/v1/jobs", jobBody, r)
	if err != nil {
		return ct, err
	}
	var created struct {
		Events string `json:"events"`
	}
	if err := json.Unmarshal(b, &created); err != nil || created.Events == "" {
		return ct, checkf("serve: job creation answered %.200s", b)
	}
	b, _, err = s.call("GET", created.Events, nil, r)
	if err != nil {
		return ct, err
	}
	ct.job = time.Since(t)
	if err := checkJob(b); err != nil {
		r.Failed++
		return ct, err
	}

	b, ct.predictCold, err = s.call("GET", "/v1/predict?"+p.query.Encode(), nil, r)
	if err != nil {
		return ct, err
	}
	if err := sameAnswer("predicted_ns of "+p.query.Encode(), &chk.predicted, predictedNs(b), r); err != nil {
		return ct, err
	}
	b, ct.scheduleCold, err = s.call("POST", "/v1/schedule", p.schedule, r)
	if err != nil {
		return ct, err
	}
	if err := sameAnswer("cold /v1/schedule", &chk.schedule, string(b), r); err != nil {
		return ct, err
	}

	for range warm {
		q := p.rows[p.rng.Intn(len(p.rows))]
		v := url.Values{"bench": {q.bench}, "size": {q.size}, "device": {p.all[p.rng.Intn(len(p.all))]}}
		b, d, err := s.call("GET", "/v1/predict?"+v.Encode(), nil, r)
		if err != nil {
			return ct, err
		}
		if predictedNs(b) == "" {
			r.Failed++
			return ct, checkf("serve: predict %s answered %.200s", v.Encode(), b)
		}
		ct.predictWarm = append(ct.predictWarm, d)
	}
	b, ct.scheduleWarm, err = s.call("POST", "/v1/schedule", p.schedule, r)
	if err != nil {
		return ct, err
	}
	if err := sameAnswer("warm /v1/schedule", &chk.schedule, string(b), r); err != nil {
		return ct, err
	}

	cells, cursor := 0, ""
	for {
		path := fmt.Sprintf("/v1/cells?limit=%d", cellsPageLimit)
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		b, d, err := s.call("GET", path, nil, r)
		if err != nil {
			return ct, err
		}
		ct.query = append(ct.query, d)
		var page struct {
			Items      []json.RawMessage `json:"items"`
			NextCursor string            `json:"next_cursor"`
		}
		if err := json.Unmarshal(b, &page); err != nil {
			return ct, checkf("serve: /v1/cells page: %v", err)
		}
		cells += len(page.Items)
		if cursor = page.NextCursor; cursor == "" {
			break
		}
	}
	if want := len(p.served) * len(p.rows); cells != want {
		r.Failed++
		return ct, checkf("serve: /v1/cells listed %d cells, want %d", cells, want)
	}
	b, d, err := s.call("GET", "/v1/grid", nil, r)
	if err != nil {
		return ct, err
	}
	ct.query = append(ct.query, d)
	sum := sha256.Sum256(b)
	if err := sameAnswer("/v1/grid", &chk.grid, string(sum[:]), r); err != nil {
		return ct, err
	}
	ct.total = time.Since(begin)
	return ct, nil
}

// checkJob reads a finished job's event stream: the job must end done, with
// its one cell served from the store.
func checkJob(stream []byte) error {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			last = data
		}
	}
	var ev struct {
		Kind   string `json:"kind"`
		State  string `json:"state"`
		Hits   int    `json:"store_hits"`
		Misses int    `json:"store_misses"`
	}
	if err := json.Unmarshal([]byte(last), &ev); err != nil {
		return checkf("serve: job stream ended with %.200q", last)
	}
	if ev.Kind != "grid_done" || ev.State != "done" || ev.Hits != 1 || ev.Misses != 0 {
		return checkf("serve: job ended %s/%s with %d hits and %d misses, want done with 1 hit and 0 misses",
			ev.Kind, ev.State, ev.Hits, ev.Misses)
	}
	return nil
}

// predictedNs extracts the predicted_ns number from a /v1/predict answer
// as written, so two answers compare bit for bit.
func predictedNs(b []byte) string {
	var resp struct {
		PredictedNs json.Number `json:"predicted_ns"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if dec.Decode(&resp) != nil {
		return ""
	}
	return resp.PredictedNs.String()
}

// sameAnswer records the first answer and fails on any later one that
// differs.
func sameAnswer(what string, first *string, got string, r *result) error {
	r.Attempted++
	switch {
	case got == "":
		r.Failed++
		return checkf("serve: %s: empty answer", what)
	case *first == "":
		*first = got
	case *first != got:
		r.Failed++
		return checkf("serve: %s changed across generations", what)
	}
	return nil
}

// runServePredict drives dwarfserve over the served store with one
// closed-loop client, cycle after cycle.
func runServePredict(ctx context.Context, e *env, r *result) error {
	dir := filepath.Join(e.work, "serve-store")
	if err := generateInputs(ctx, e, dir); err != nil {
		return err
	}
	reg, _ := sweepSetup()
	plan := newServePlan(e.seed, reg)

	var setup []float64
	var s *dwarfserve
	for i := range serveProbes {
		srv, d, err := startServe(ctx, e, dir, "")
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
		if i < serveProbes-1 {
			srv.stop()
		} else {
			s = srv
		}
	}
	defer s.stop()

	var cycles []cycleTimes
	var chk serveChecks
	start := time.Now()
	for i := 0; i < minCycles || time.Since(start) < e.budget; i++ {
		ct, err := plan.cycle(s, warmPredicts, &chk, r)
		if err != nil {
			return err
		}
		cycles = append(cycles, ct)
	}
	var total, warm []float64
	for _, c := range cycles {
		total = append(total, c.total.Seconds())
		for _, d := range c.predictWarm {
			warm = append(warm, d.Seconds())
		}
	}
	r.set("setup_s", median(setup), "s")
	r.set("cells_per_s", 1/median(warm), "1/s")
	r.set("cycle_ms", median(total)*1e3, "ms")
	return nil
}

// scrape reads dwarfserve's /metrics exposition into sample name (with
// labels) → value. It goes through call's connection but is not counted as
// workload traffic.
func (s *dwarfserve) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
