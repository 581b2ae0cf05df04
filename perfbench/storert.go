package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/store"
)

// storeGrids is how many full grids, each from its own dataset seed, every
// round trip writes: enough that the store holds more than one grid's keys.
const storeGrids = 3

// minRoundTrips is how many round trips a store_roundtrip run makes however
// short its budget.
const minRoundTrips = 5

// inputGrid is one generated grid, the spec that swept it (its options fix
// the cells' store keys) and its export digest.
type inputGrid struct {
	spec   harness.GridSpec
	grid   *harness.Grid
	digest string
}

// runStoreRoundTrip writes several full grids into a fresh store, reopens
// it, re-sweeps one grid through the slot cache, compacts and reopens
// again, over and over. The store does the work; nothing is prepared.
func runStoreRoundTrip(ctx context.Context, e *env, r *result) error {
	setup, err := setupTimes(ctx, e)
	if err != nil {
		return err
	}
	grids, err := loadInputGrids(ctx, e)
	if err != nil {
		return err
	}
	reg, _ := sweepSetup()
	var rts []roundTrip
	start := time.Now()
	for i := 0; i < minRoundTrips || time.Since(start) < e.budget; i++ {
		debug.FreeOSMemory() // every round trip starts from the same heap
		rt, err := storeRoundTrip(ctx, reg, filepath.Join(e.work, fmt.Sprintf("rt-%03d", i)), grids, i%len(grids), r)
		if err != nil {
			return err
		}
		rts = append(rts, rt)
	}
	var read, total []float64
	for _, rt := range rts {
		read, total = append(read, rt.read), append(total, rt.total)
	}
	r.set("setup_s", median(setup), "s")
	r.set("cells_per_s", paperCells/median(read), "1/s")
	r.set("cycle_ms", median(total)*1e3, "ms")
	return nil
}

// roundTrip holds one store round trip's measurements: the read path (the
// reopen and the all-hit re-sweep of one grid) and the whole trip in
// seconds.
type roundTrip struct {
	read, total float64
}

// storeRoundTrip runs one round trip in dir and checks it: every Put record
// survives the reopen and the compaction, and the re-sweep of grid `again`
// hits on every cell and exports exactly the bytes that were Put.
func storeRoundTrip(ctx context.Context, reg *dwarfs.Registry, dir string, grids []inputGrid, again int, r *result) (roundTrip, error) {
	var rt roundTrip
	defer os.RemoveAll(dir)
	want := 0
	for _, g := range grids {
		want += g.grid.Cells()
	}
	begin := time.Now()

	st, err := store.Open(dir)
	if err != nil {
		return rt, err
	}
	for _, g := range grids {
		for _, m := range g.grid.Measurements {
			if err := putCell(st, m, g.spec.Options); err != nil {
				st.Close()
				return rt, err
			}
		}
	}
	r.Attempted += want
	if err := st.Close(); err != nil {
		return rt, err
	}

	// Reopen: segment replay into a cold slot cache (the last Close freed it).
	t := time.Now()
	st, err = store.Open(dir)
	if err != nil {
		return rt, err
	}
	cs := store.Cached(st)
	defer cs.Close()
	if err := checkLen("reopen", cs, want, r); err != nil {
		return rt, err
	}

	g := grids[again]
	spec := g.spec
	spec.Store = cs
	re, err := harness.RunGrid(ctx, reg, spec)
	rt.read = time.Since(t).Seconds()
	if err != nil {
		return rt, err
	}
	r.Attempted += g.grid.Cells()
	if err := checkResweep(re, g.grid.Cells(), g.digest); err != nil {
		r.Failed += g.grid.Cells() - re.StoreHits
		return rt, err
	}

	if err := cs.Compact(); err != nil {
		return rt, err
	}
	if err := checkLen("compaction", cs, want, r); err != nil {
		return rt, err
	}
	if err := cs.Close(); err != nil {
		return rt, err
	}

	st, err = store.Open(dir)
	if err != nil {
		return rt, err
	}
	defer st.Close()
	if err := checkLen("reopen after compaction", st, want, r); err != nil {
		return rt, err
	}
	rt.total = time.Since(begin).Seconds()
	return rt, nil
}

// putCell stores one measured cell under its key for opt, as the harness
// does after measuring it.
func putCell(st store.CellStore, m *harness.Measurement, opt harness.Options) error {
	raw, err := harness.EncodeMeasurement(m)
	if err != nil {
		return err
	}
	return st.Put(store.Record{
		Key: harness.CellKey(m.Benchmark, m.Size, m.Device, opt), Benchmark: m.Benchmark,
		Size: m.Size, Device: m.Device.ID, Schema: harness.StoreSchemaVersion, Value: raw,
	})
}

func checkLen(stage string, st store.CellStore, want int, r *result) error {
	r.Attempted++
	if got := st.Len(); got != want {
		r.Failed++
		return checkf("store: %d records after %s, want %d", got, stage, want)
	}
	return nil
}

// checkResweep verifies an all-hit re-sweep of a grid of cells cells: every
// cell came from the store and the export is byte-identical to the grid
// that was Put.
func checkResweep(g *harness.Grid, cells int, wantDigest string) error {
	if g.Cells() != cells || g.StoreHits != cells || g.StoreMisses != 0 {
		return checkf("store: re-sweep of %d cells returned %d, %d hits and %d misses", cells, g.Cells(), g.StoreHits, g.StoreMisses)
	}
	got, err := gridDigest(g)
	if err != nil {
		return err
	}
	if got != wantDigest {
		return checkf("store: re-sweep export %s differs from the Put grid's %s", got[:12], wantDigest[:12])
	}
	return nil
}

// inputSpec names the grids a workload's inputs hold: one dataset seed per
// grid and the devices swept.
func inputSpec(workload string, seed int64) (seeds []int64, devices []string) {
	switch workload {
	case "store_roundtrip":
		for k := range storeGrids {
			seeds = append(seeds, datasetSeed(seed, streamStoreGrids, k))
		}
	case "serve_predict":
		seeds = []int64{datasetSeed(seed, streamServe, 0)}
		devices = servedDevices(seed)
	}
	return seeds, devices
}

// generateInputs sweeps the workload's input grids into a store at dir in
// a child process, so the sweeps' heap growth and garbage never weigh on
// this process's timed cycles.
func generateInputs(ctx context.Context, e *env, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := childCommand(ctx, exe, "-gen", dir, "-workload", e.workload, "-seed", fmt.Sprint(e.seed))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	return nil
}

// genInputs is the child side of generateInputs.
func genInputs(ctx context.Context, workload string, seed int64, dir string) error {
	seeds, devices := inputSpec(workload, seed)
	reg, spec := sweepSetup()
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	spec.Store, spec.Devices = st, devices
	for _, s := range seeds {
		spec.Options.Seed = s
		g, err := harness.RunGrid(ctx, reg, spec)
		if err != nil {
			return err
		}
		if len(g.Failed) > 0 {
			return fmt.Errorf("input grid for seed %d: %d cells failed", s, len(g.Failed))
		}
	}
	return st.Close()
}

// loadInputGrids generates the store_roundtrip inputs and reads each grid
// back, with its export digest, as the round trips' source data.
func loadInputGrids(ctx context.Context, e *env) ([]inputGrid, error) {
	dir := filepath.Join(e.work, "inputs")
	if err := generateInputs(ctx, e, dir); err != nil {
		return nil, err
	}
	seeds, _ := inputSpec(e.workload, e.seed)
	reg, spec := sweepSetup()
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	spec.Store = st
	var grids []inputGrid
	for _, s := range seeds {
		spec.Options.Seed = s
		g, err := harness.RunGrid(ctx, reg, spec)
		if err != nil {
			return nil, err
		}
		if g.Cells() != paperCells || g.StoreHits != paperCells {
			return nil, fmt.Errorf("input grid for seed %d: %d cells, %d from the store", s, g.Cells(), g.StoreHits)
		}
		d, err := gridDigest(g)
		if err != nil {
			return nil, err
		}
		gs := spec
		gs.Store = nil
		grids = append(grids, inputGrid{spec: gs, grid: g, digest: d})
	}
	return grids, nil
}
