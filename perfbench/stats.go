package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"opendwarfs/internal/store"
)

// Set-up probes: how many times a run sets its workload up to time it, in
// fresh processes (a few ms each) or dwarfserve starts (a store replay
// each); setup_s is their median.
const (
	setupProbes = 51
	serveProbes = 21
)

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p99 returns the 99th percentile of xs when at least ten samples lie
// beyond it, and false otherwise.
func p99(xs []float64) (float64, bool) {
	if len(xs) < 1000 {
		return 0, false
	}
	return quantile(xs, 0.99), true
}

// peakRSSMB returns the largest resident set process pid (0: this process)
// has had so far, in MB: the kernel's exact high-water mark, VmHWM.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil || kb <= 0 {
				return 0, fmt.Errorf("%s: bad VmHWM line %q", path, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// allocMB reports the MB allocated so far by this process.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// setupTimes starts the workload's set-up setupProbes times, each in a
// fresh process, and returns each start-to-ready time in seconds. A fresh
// process pays the Go runtime and package initialisation a user pays, so
// work moved into start-up shows.
func setupTimes(ctx context.Context, e *env) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for range setupProbes {
		cmd := childCommand(ctx, exe, "-probe", "-workload", e.workload, "-out", e.work)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe said %q (%v)", line, rerr)
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

// childCommand is exec.CommandContext for a child that must not outlive
// this process, even if it is killed.
func childCommand(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// probeSetup is the child side of setupTimes: it performs the workload's
// set-up and reports ready.
func probeSetup(workload, out string) error {
	switch workload {
	case "sweep_cold":
		sweepSetup()
	case "store_roundtrip":
		sweepSetup()
		dir, err := os.MkdirTemp(out, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			return err
		}
		if err := store.Cached(st).Close(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("workload %s has no in-process set-up", workload)
	}
	fmt.Println("ready")
	return nil
}
