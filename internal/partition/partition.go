// Package partition implements FuPerMod's model-based data partitioning
// algorithms (paper §4.3):
//
//   - Even — the homogeneous baseline: equal shares regardless of speed.
//   - Constant — the basic algorithm on constant performance models:
//     shares proportional to constant speeds.
//   - Geometric — the Lastovetsky–Reddy algorithm on piecewise-linear FPMs:
//     iterative bisection of the speed functions by lines through the
//     origin. A line s = k·x meets each speed curve where s_i(x)/x = k,
//     i.e. where t_i(x) = 1/k, so the bisection is implemented on the
//     common time τ using the strictly increasing (coarsened) time
//     functions and their exact inverses.
//   - Numerical — the multidimensional-solver algorithm on Akima-spline
//     FPMs (Rychkov–Clarke–Lastovetsky, PaCT 2011): damped Newton on the
//     balance system t_i(d_i) = t_n(d_n), Σ d_i = D, with a τ-bisection
//     fallback when Newton stalls.
//
// All partitioners return integer distributions with Σ d_i = D exactly:
// the real-valued balance point is rounded by flooring and the remaining
// units are assigned greedily to the process whose predicted finish time
// stays smallest (minimising the predicted makespan).
package partition

import (
	"errors"
	"fmt"
	"math"

	"fupermod/internal/core"
)

// ErrNoModels is returned when Partition is called with an empty model set.
var ErrNoModels = errors.New("partition: no models")

// validateInput checks the shared preconditions of all partitioners.
func validateInput(models []core.Model, D int) error {
	if len(models) == 0 {
		return ErrNoModels
	}
	if D < 0 {
		return fmt.Errorf("partition: negative problem size %d", D)
	}
	for i, m := range models {
		if m == nil {
			return fmt.Errorf("partition: model %d is nil", i)
		}
	}
	return nil
}

// Even returns the homogeneous baseline partitioner: D/n units each. When
// models are supplied their predicted part times are filled in so callers
// can inspect the imbalance an even distribution would cause.
func Even() core.Partitioner {
	return core.PartitionerFunc{
		AlgoName: "even",
		Func: func(models []core.Model, D int) (*core.Dist, error) {
			if err := validateInput(models, D); err != nil {
				return nil, err
			}
			dist, err := core.NewEvenDist(D, len(models))
			if err != nil {
				return nil, err
			}
			fillTimes(models, dist)
			return dist, nil
		},
	}
}

// Constant returns the basic CPM algorithm: shares proportional to the
// model speeds evaluated at the even share D/n. For true constant models
// the evaluation point is irrelevant; for functional models this is the
// natural "one benchmark at a representative size" approximation the paper
// contrasts against (§2: constants "found as their relative speeds
// demonstrated during the execution of a serial benchmark code ... of some
// given size").
func Constant() core.Partitioner {
	return core.PartitionerFunc{
		AlgoName: "constant",
		Func: func(models []core.Model, D int) (*core.Dist, error) {
			if err := validateInput(models, D); err != nil {
				return nil, err
			}
			n := len(models)
			if D == 0 {
				return zeroDist(models)
			}
			evalAt := math.Max(float64(D)/float64(n), 1)
			speeds := make([]float64, n)
			total := 0.0
			for i, m := range models {
				s, err := core.ModelSpeed(m, evalAt)
				if err != nil {
					return nil, fmt.Errorf("partition: constant: model %d: %w", i, err)
				}
				if s <= 0 {
					return nil, fmt.Errorf("partition: constant: model %d has non-positive speed %g", i, s)
				}
				speeds[i] = s
				total += s
			}
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(D) * speeds[i] / total
			}
			return finalize(models, D, xs)
		},
	}
}

// zeroDist returns the all-zero distribution for D = 0.
func zeroDist(models []core.Model) (*core.Dist, error) {
	return &core.Dist{D: 0, Parts: make([]core.Part, len(models))}, nil
}

// fillTimes sets each part's predicted time from its model, leaving 0 where
// a model cannot predict (empty model, zero part).
func fillTimes(models []core.Model, dist *core.Dist) {
	for i := range dist.Parts {
		d := dist.Parts[i].D
		if d == 0 {
			dist.Parts[i].Time = 0
			continue
		}
		if t, err := models[i].Time(float64(d)); err == nil {
			dist.Parts[i].Time = t
		}
	}
}

// finalize converts a real-valued balance point xs (Σ xs ≈ D) into an
// integer distribution summing exactly to D: floor every share, then hand
// out the remaining units one at a time to the process whose finish time
// after the extra unit is smallest.
func finalize(models []core.Model, D int, xs []float64) (*core.Dist, error) {
	n := len(models)
	dist := &core.Dist{D: D, Parts: make([]core.Part, n)}
	// excess is Σ parts − D: unlike the sum itself it cannot overflow when
	// D is near the top of the int range and the floats round up.
	excess := -D
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("partition: non-finite share %g for process %d", x, i)
		}
		// Clamp before converting: a share past the int range would wrap.
		d := D
		if x < float64(D) {
			d = min(max(int(math.Floor(x)), 0), D)
		}
		dist.Parts[i].D = d
		excess += d
	}
	// Floors can only under-assign when Σxs ≈ D, unless shares were
	// clamped or rounded up; shave any excess off the largest parts.
	for ; excess > 0; excess-- {
		maxI := 0
		for i := range dist.Parts {
			if dist.Parts[i].D > dist.Parts[maxI].D {
				maxI = i
			}
		}
		dist.Parts[maxI].D--
	}
	for ; excess < 0; excess++ {
		best := -1
		bestT := math.Inf(1)
		for i := range dist.Parts {
			t, err := models[i].Time(float64(dist.Parts[i].D + 1))
			if err != nil {
				return nil, fmt.Errorf("partition: finalize: model %d: %w", i, err)
			}
			if t < bestT {
				bestT = t
				best = i
			}
		}
		dist.Parts[best].D++
	}
	fillTimes(models, dist)
	if err := dist.Validate(); err != nil {
		return nil, fmt.Errorf("partition: internal error: %w", err)
	}
	return dist, nil
}
