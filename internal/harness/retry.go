package harness

import (
	"context"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"
	"time"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/power"
	"opendwarfs/internal/scibench"
)

// RetryPolicy governs per-cell measurement retries in a grid run. The
// zero value makes exactly one attempt per cell with no timeout — the
// non-retrying harness, unchanged.
type RetryPolicy struct {
	// MaxAttempts is the total number of measurement attempts per cell,
	// first try included; 0 and 1 both mean a single attempt.
	MaxAttempts int
	// BaseBackoff is the pause before the second attempt; each further
	// retry doubles it (exponential backoff), capped at MaxBackoff when
	// that is set. 0 retries immediately.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 = uncapped.
	MaxBackoff time.Duration
	// Jitter ∈ [0,1] shortens each backoff by a pseudo-random fraction
	// of itself, decorrelating retry storms across cells. The fraction
	// is hashed from (cell, attempt) — deterministic, never drawn from a
	// shared RNG — so jitter does not cost reproducibility.
	Jitter float64
	// AttemptTimeout bounds one measurement attempt. An attempt that
	// exceeds it is classified as retryable (like a transient fault),
	// provided the run's own context is still live. 0 = unbounded.
	AttemptTimeout time.Duration
}

// pause waits out the deterministic backoff before the given attempt
// number (≥ 2): exponential in the attempt, capped, then jittered by the
// cell-coordinate hash. It returns ctx's error if ctx ends first.
func (r RetryPolicy) pause(ctx context.Context, bench, size, device string, attempt int) error {
	if r.BaseBackoff <= 0 || attempt <= 1 {
		return nil
	}
	d := r.BaseBackoff
	for i := 2; i < attempt && d < time.Hour; i++ {
		d *= 2
	}
	if r.MaxBackoff > 0 && d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	if r.Jitter > 0 {
		j := r.Jitter
		if j > 1 {
			j = 1
		}
		h := fnv.New64a()
		io.WriteString(h, bench)
		h.Write([]byte{0})
		io.WriteString(h, size)
		h.Write([]byte{0})
		io.WriteString(h, device)
		h.Write([]byte{0})
		io.WriteString(h, strconv.Itoa(attempt))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		d = time.Duration(float64(d) * (1 - j*rng.Float64()))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// applyDecision distorts a successful measurement per the injector's
// verdict: a straggler's time samples are dilated by the slow factor,
// and a power dropout zeroes the energy samples of NVML-metered cells
// (board-level sensors are the flaky ones; RAPL cells are unaffected).
// Summaries and diagnostics are recomputed so the measurement — and the
// stored cell it becomes — stays self-consistent.
func applyDecision(m *Measurement, dec faults.Decision) {
	if dec.SlowFactor > 1 {
		for i := range m.KernelNs {
			m.KernelNs[i] *= dec.SlowFactor
		}
		for i := range m.TransferNs {
			m.TransferNs[i] *= dec.SlowFactor
		}
		m.Kernel = scibench.Summarize(m.KernelNs)
		for _, v := range m.TransferNs {
			if v > 0 {
				m.Transfer = scibench.Summarize(m.TransferNs)
				break
			}
		}
		m.Diagnostics = scibench.Diagnose(m.KernelNs)
	}
	if dec.PowerDropout && m.MeterScope == power.ScopeNVMLBoard {
		for i := range m.EnergyJ {
			m.EnergyJ[i] = 0
		}
		m.Energy = scibench.Summarize(m.EnergyJ)
	}
}
