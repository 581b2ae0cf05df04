package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"time"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/suite"
)

// gridWorkers is the grid's worker count: the benchmark host has two cores,
// and one process drives all the load.
const gridWorkers = 2

// paperCells is the size of the paper grid: 11 benchmarks × every size each
// supports × 15 devices.
const paperCells = 615

// minSweeps is how many sweeps a sweep_cold run makes however short its
// budget.
const minSweeps = 3

// sweepSetup is everything a grid sweep needs before its first timed
// operation: the suite registry, the device catalogue and the paper's
// options (50 samples, functional budget 3e8, verification on).
func sweepSetup() (*dwarfs.Registry, harness.GridSpec) {
	opencl.AllDevices()
	return suite.New(), harness.GridSpec{Options: harness.DefaultOptions(), Workers: gridWorkers}
}

// datasetSeed derives the i-th dataset seed of a stream from the workload
// seed (splitmix64), so each sweep of a run generates fresh datasets and
// the same workload seed always generates the same ones.
func datasetSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i) + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1 // positive and non-zero: 0 means "default" to dwarfserve jobs
}

// Seed streams, one per kind of input.
const (
	streamSweep = iota
	streamStoreGrids
	streamServe
	streamLayers
)

// runSweepCold sweeps the full paper grid again and again, each time with a
// fresh dataset seed and no store, so preparation does nearly all the work.
func runSweepCold(ctx context.Context, e *env, r *result) error {
	setup, err := setupTimes(ctx, e)
	if err != nil {
		return err
	}
	reg, spec := sweepSetup()
	var walls []float64
	cells := 0
	start := time.Now()
	for i := 0; i < minSweeps || time.Since(start) < e.budget; i++ {
		spec.Options.Seed = datasetSeed(e.seed, streamSweep, i)
		debug.FreeOSMemory() // every sweep starts from the same heap
		t := time.Now()
		g, err := harness.RunGrid(ctx, reg, spec)
		walls = append(walls, time.Since(t).Seconds())
		if err != nil {
			return err
		}
		r.Attempted += paperCells
		r.Failed += len(g.Failed)
		if err := checkSweep(g); err != nil {
			return err
		}
		cells += g.Cells()
	}
	r.set("setup_s", median(setup), "s")
	r.set("cells_per_s", float64(cells)/sum(walls), "1/s")
	r.set("cycle_ms", median(walls)*1e3, "ms")
	return nil
}

// checkSweep verifies a paper-grid sweep: every one of the 615 cells is
// present, none failed, and every cell that ran functionally was verified
// against its serial reference.
func checkSweep(g *harness.Grid) error {
	if len(g.Failed) > 0 {
		f := g.Failed[0]
		return checkf("sweep: %d failed cells, first %s/%s/%s: %s", len(g.Failed), f.Benchmark, f.Size, f.Device, f.Reason)
	}
	if g.Cells() != paperCells {
		return checkf("sweep: %d cells, want %d", g.Cells(), paperCells)
	}
	functional := 0
	for _, m := range g.Measurements {
		if !m.Functional {
			continue
		}
		functional++
		if !m.Verified {
			return checkf("sweep: %s/%s/%s ran functionally but was not verified", m.Benchmark, m.Size, m.Device.ID)
		}
	}
	if functional == 0 {
		return checkf("sweep: no cell ran functionally")
	}
	return nil
}

// gridDigest is the SHA-256 of the grid's raw-sample CSV export, the bytes
// dwarfsweep -csv writes.
func gridDigest(g *harness.Grid) (string, error) {
	var recs []scibench.Record
	for _, m := range g.Measurements {
		recs = append(recs, m.Records()...)
	}
	var buf bytes.Buffer
	if err := scibench.WriteCSV(&buf, recs); err != nil {
		return "", fmt.Errorf("grid export: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
