package core

import (
	"context"
	"fmt"
	"math"

	"fupermod/internal/pool"
	"fupermod/internal/stats"
)

// Benchmark measures the execution time of d computation units of the
// kernel, repeating the run until the confidence interval of the mean is
// tight enough (Precision.RelErr at Precision.Confidence), the repetition
// cap is hit, or the per-point time budget is exhausted. It is the
// counterpart of fupermod_benchmark.
//
// The returned Point records the mean time, the number of repetitions
// actually taken and the achieved confidence-interval half-width, so
// callers can tell precise points from budget-truncated ones.
func Benchmark(k Kernel, d int, prec Precision) (Point, error) {
	if err := prec.Validate(); err != nil {
		return Point{}, err
	}
	if d <= 0 {
		return Point{}, fmt.Errorf("core: benchmark of %q needs a positive size, got %d", k.Name(), d)
	}
	inst, err := k.Setup(d)
	if err != nil {
		return Point{}, fmt.Errorf("core: setup of %q at d=%d: %w", k.Name(), d, err)
	}
	defer inst.Close()

	for w := 0; w < prec.Warmup; w++ {
		if _, err := inst.Run(); err != nil {
			return Point{}, fmt.Errorf("core: warmup of %q at d=%d: %w", k.Name(), d, err)
		}
	}
	var sum stats.Summary
	total := 0.0
	for {
		t, err := inst.Run()
		if err != nil {
			return Point{}, fmt.Errorf("core: run of %q at d=%d (rep %d): %w", k.Name(), d, sum.N()+1, err)
		}
		if t < 0 {
			return Point{}, fmt.Errorf("core: run of %q at d=%d returned negative time %g", k.Name(), d, t)
		}
		sum.Add(t)
		total += t
		if sum.N() < prec.MinReps {
			continue
		}
		if sum.N() >= prec.MaxReps {
			break
		}
		if prec.MaxSeconds > 0 && total >= prec.MaxSeconds {
			break
		}
		if sum.N() < 2 {
			// A single observation has no confidence interval; take
			// another repetition before judging precision.
			continue
		}
		rel, err := sum.RelCI(prec.Confidence)
		if err != nil {
			return Point{}, err
		}
		if rel <= prec.RelErr {
			break
		}
	}
	ci := 0.0
	if sum.N() >= 2 {
		if ci, err = sum.CI(prec.Confidence); err != nil {
			return Point{}, err
		}
	}
	return Point{D: d, Time: sum.Mean(), Reps: sum.N(), CI: ci}, nil
}

// BenchmarkCost reports the total measured kernel time a benchmark of the
// given points consumed: Σ Time×Reps. Experiment E3 uses it to compare the
// cost of building full models against dynamic partial estimation.
func BenchmarkCost(points []Point) float64 {
	c := 0.0
	for _, p := range points {
		c += p.Time * float64(p.Reps)
	}
	return c
}

// Sweep benchmarks the kernel at each of the given sizes and returns the
// points in the same order. It stops at the first error.
func Sweep(k Kernel, sizes []int, prec Precision) ([]Point, error) {
	return ProbeSweep(NewProber(k, prec), sizes)
}

// Prober measures a single problem size and returns its point. It is the
// unit the probe-driven acquisition paths (internal/transfer's active
// sampling, ProbeSweep) are expressed over: a sweep is just a prober
// applied to a whole grid, while transfer applies the same prober to a few
// chosen sizes.
type Prober func(d int) (Point, error)

// NewProber adapts a kernel and a precision policy into a Prober. Each
// call is one Benchmark run — on virtual kernels with measurement noise
// the meter draws in call order, so two probers over the same kernel
// instance interleave their noise streams.
func NewProber(k Kernel, prec Precision) Prober {
	return func(d int) (Point, error) {
		return Benchmark(k, d, prec)
	}
}

// ProbeSweep runs the prober over each of the given sizes and returns the
// points in the same order, stopping at the first error — Sweep's
// prefix-and-error contract expressed over an arbitrary measurement
// source.
func ProbeSweep(probe Prober, sizes []int) ([]Point, error) {
	pts := make([]Point, 0, len(sizes))
	for _, d := range sizes {
		p, err := probe(d)
		if err != nil {
			return pts, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// SweepParallel benchmarks the kernel at each of the given sizes with up
// to workers concurrent measurements (workers <= 0 selects GOMAXPROCS)
// and returns the points in size-grid order, exactly as Sweep would. On
// error it cancels the outstanding measurements and returns the points of
// the sizes preceding the first failing one, together with that error —
// the same prefix-and-error contract as Sweep.
//
// The kernel's Setup and the instances it returns must be safe for
// concurrent use (the built-in virtual kernels are; real CPU kernels
// measured concurrently contend for the machine, which perturbs the very
// times being measured — use workers = 1 for them, or accept the skew).
// Virtual kernels with measurement noise draw from their meter in
// scheduler order, so noisy parallel sweeps are statistically — not
// bitwise — equivalent to serial ones; noiseless sweeps are identical.
func SweepParallel(k Kernel, sizes []int, prec Precision, workers int) ([]Point, error) {
	return SweepOnPool(context.Background(), pool.New(workers), k, sizes, prec)
}

// SweepOnPool is SweepParallel on a caller-supplied pool and context: the
// per-size measurements share the pool's concurrency bound with every other
// task running on it, so long-lived callers (the partition service) can
// fan out many sweeps without oversubscribing the machine. The contract is
// that of Sweep: points in size-grid order, and on error the completed
// prefix before the first failing size.
func SweepOnPool(ctx context.Context, p *pool.Pool, k Kernel, sizes []int, prec Precision) ([]Point, error) {
	pts, err := pool.Map(ctx, p, len(sizes), func(_ context.Context, i int) (Point, error) {
		return Benchmark(k, sizes[i], prec)
	})
	if err != nil {
		// Keep Sweep's contract: return the completed prefix before the
		// first failing size.
		for i, pt := range pts {
			if pt == (Point{}) {
				return pts[:i], err
			}
		}
		return pts, err
	}
	return pts, nil
}

// LogSizes returns n problem sizes spread geometrically over [lo, hi],
// deduplicated and sorted — the usual sampling grid for building a full
// functional performance model. Every returned size lies in [lo, hi], the
// sizes are strictly increasing, and at most n are returned (fewer when
// the integer range cannot hold n distinct sizes).
func LogSizes(lo, hi, n int) []int {
	if n <= 0 || lo <= 0 || hi < lo {
		return nil
	}
	if n == 1 {
		return []int{lo}
	}
	ratio := float64(hi) / float64(lo)
	out := make([]int, 0, n)
	prev := 0
	for i := 0; i < n; i++ {
		f := float64(lo) * math.Pow(ratio, float64(i)/float64(n-1))
		// Near the top of the int range float64 rounding can leave [lo, hi],
		// and a size past it would wrap converting.
		d := hi
		if f < float64(hi) {
			d = max(int(f+0.5), lo)
		}
		if d <= prev {
			if prev == hi {
				break // hi is taken: no larger size fits (and prev+1 could wrap)
			}
			d = prev + 1
		}
		if d > hi {
			// Clamp unconditionally: when the grid is dense relative to
			// the range, the d <= prev bump can push past hi — the
			// duplicate hi is then dropped by the d == prev check below.
			d = hi
		}
		if d != prev {
			out = append(out, d)
			prev = d
		}
	}
	return out
}
