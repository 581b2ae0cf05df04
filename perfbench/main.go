// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time from a seed and prints one JSON result
// line: whether every output checked out, how many operations were
// attempted and failed, and the workload's metrics.
//
//	perfbench -workload sweep_cold|store_roundtrip|serve_predict -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the workload untraced and reports the
// end-to-end metrics. With -trace 1 it runs the layer pass instead (see
// layers.go): every layer's public functions are timed from this package,
// the grid runs under an obs tracer, dwarfserve runs with -trace, and the
// per-layer metrics are reported. Build it with run.sh, which also builds
// the dwarfserve binary the serve workload drives. README.md lists the
// workloads, the metrics and which layer moves which metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workload runs one workload for budget and fills the result it is given.
type workload func(ctx context.Context, env *env, r *result) error

var workloads = map[string]workload{
	"sweep_cold":      runSweepCold,
	"store_roundtrip": runStoreRoundTrip,
	"serve_predict":   runServePredict,
}

// env is what every workload is handed: its seed, its time budget and the
// directories it may use.
type env struct {
	workload string
	seed     int64
	budget   time.Duration
	out      string // build directory: holds the dwarfserve binary
	work     string // this run's scratch directory, removed at exit
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep_cold, store_roundtrip or serve_predict")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 20, "how long the workload's timed loop runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced layer pass with per-layer metrics")
		out     = flag.String("out", ".bench_build", "build directory holding the dwarfserve binary and scratch files")
		probe   = flag.Bool("probe", false, "child mode: perform the workload's set-up, print ready and exit")
		gen     = flag.String("gen", "", "child mode: sweep the workload's input grids into this store directory and exit")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown -workload %q (valid: sweep_cold, serve_predict, store_roundtrip)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("want -seconds ≥ 1 and -trace 0 or 1")
	}
	switch {
	case *probe:
		if err := probeSetup(*name, *out); err != nil {
			fatalf("probe: %v", err)
		}
		return
	case *gen != "":
		if err := genInputs(context.Background(), *name, *seed, *gen); err != nil {
			fatalf("inputs: %v", err)
		}
		return
	}
	outDir, err := filepath.Abs(*out)
	if err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	e := &env{workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, out: outDir, work: work}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	r := newResult()
	if *trace == 1 {
		err = runLayers(ctx, e, r)
	} else {
		err = run(ctx, e, r)
	}
	stop()
	if rerr := os.RemoveAll(work); rerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rerr)
	}
	var failed *checkError
	switch {
	case errors.As(err, &failed):
		// A wrong output still reports what was measured, but the run fails.
		r.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", err)
		r.print()
		os.Exit(1)
	case err != nil:
		fatalf("%s: %v", *name, err)
	}
	r.print()
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) print() {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// checkError marks a wrong program output, as opposed to a failure to run
// the benchmark at all.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, a ...any) error { return &checkError{fmt.Sprintf(format, a...)} }

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(1)
}
