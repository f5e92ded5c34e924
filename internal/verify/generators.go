package verify

import (
	"fmt"
	"math"
	"math/rand"

	"fupermod/internal/core"
	"fupermod/internal/model"
	"fupermod/internal/platform"
)

// Shape classifies the time/speed function of a synthetic process.
type Shape string

// The generated shapes. The first four satisfy the shape restrictions the
// functional-model algorithms assume (monotonically increasing time);
// ShapeNoisy and ShapeNonMonotonic deliberately violate them to probe how
// the partitioners degrade.
const (
	// ShapeConstant is a fixed speed at every size — the CPM assumption.
	ShapeConstant Shape = "constant"
	// ShapeSmooth is a smoothly, mildly decreasing speed (cache warmth
	// fading with working-set growth).
	ShapeSmooth Shape = "smooth"
	// ShapePlateau is a flat speed with one logistic drop at a
	// memory-hierarchy boundary — the published Netlib/ATLAS shape.
	ShapePlateau Shape = "plateau"
	// ShapeGPUCliff is a fast device with a large constant overhead and a
	// superlinear penalty past its memory limit — the out-of-core GPU
	// shape (paper challenge (ii)).
	ShapeGPUCliff Shape = "gpu-cliff"
	// ShapeNoisy multiplies a smooth base by seeded per-cell jitter, so
	// the time function is positive but locally non-monotonic.
	ShapeNoisy Shape = "noisy"
	// ShapeNonMonotonic oscillates the speed around its mean, producing
	// the non-monotone speed functions the shape restrictions forbid.
	ShapeNonMonotonic Shape = "non-monotonic"
)

// Shapes lists every generated shape.
func Shapes() []Shape {
	return []Shape{ShapeConstant, ShapeSmooth, ShapePlateau, ShapeGPUCliff, ShapeNoisy, ShapeNonMonotonic}
}

// MonotoneShapes lists the shapes whose time functions are monotonically
// increasing — the precondition of the geometric algorithm and of the
// brute-force optimality comparison.
func MonotoneShapes() []Shape {
	return []Shape{ShapeConstant, ShapeSmooth, ShapePlateau, ShapeGPUCliff}
}

// Monotone reports whether the shape guarantees an increasing time
// function.
func (s Shape) Monotone() bool {
	switch s {
	case ShapeNoisy, ShapeNonMonotonic:
		return false
	}
	return true
}

// Proc is one synthetic process: a named exact time function.
type Proc struct {
	// Name identifies the process in reports.
	Name string
	// Shape is the generated shape family.
	Shape Shape
	// Time is the exact time function in seconds for x units, positive
	// for x > 0.
	Time func(x float64) float64
}

// Speed returns the exact speed x/Time(x) in units per second (0 at x≤0).
func (p Proc) Speed(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x / p.Time(x)
}

// Device adapts the process to the platform.Device interface so virtual
// kernels (and therefore the dynamic algorithms) can run on it. Only
// monotone shapes honour Device's non-decreasing-time contract.
func (p Proc) Device() platform.Device { return procDevice{p} }

type procDevice struct{ p Proc }

func (d procDevice) Name() string { return d.p.Name }

func (d procDevice) BaseTime(x float64) float64 {
	if x < 0 {
		x = 0
	}
	t := d.p.Time(x)
	if t < 1e-12 {
		t = 1e-12
	}
	return t
}

// Gen generates synthetic processes deterministically from a seed.
type Gen struct {
	rng *rand.Rand
	n   int // processes generated so far, for unique names
}

// NewGen returns a generator; equal seeds generate equal platforms.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// uniform returns a uniform draw in [lo, hi).
func (g *Gen) uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.rng.Float64()
}

// Proc generates one process of the given shape with random parameters.
// Peak speeds span more than an order of magnitude, so generated
// platforms are genuinely heterogeneous.
func (g *Gen) Proc(shape Shape) Proc {
	g.n++
	name := fmt.Sprintf("%s-%d", shape, g.n)
	peak := g.uniform(50, 2000) // units/second
	switch shape {
	case ShapeConstant:
		return Proc{Name: name, Shape: shape, Time: func(x float64) float64 {
			return x / peak
		}}
	case ShapeSmooth:
		// Speed decays smoothly from peak towards peak/(1+a) with scale c.
		a := g.uniform(0.2, 1.5)
		c := g.uniform(500, 20000)
		o := g.uniform(0, 1e-4)
		return Proc{Name: name, Shape: shape, Time: func(x float64) float64 {
			return o + x/peak*(1+a*x/(x+c))
		}}
	case ShapePlateau:
		at := g.uniform(1000, 20000)
		width := at * g.uniform(0.02, 0.15)
		drop := g.uniform(0.2, 0.6)
		o := g.uniform(0, 1e-4)
		return Proc{Name: name, Shape: shape, Time: func(x float64) float64 {
			s := peak * (1 - drop/(1+math.Exp(-(x-at)/width)))
			return o + x/s
		}}
	case ShapeGPUCliff:
		peak *= g.uniform(3, 10)          // accelerators are fast in-core
		overhead := g.uniform(1e-3, 2e-2) // kernel-launch + transfer cost
		mem := g.uniform(5000, 40000)     // device-memory limit in units
		severity := g.uniform(0.5, 3)     // out-of-core penalty slope
		return Proc{Name: name, Shape: shape, Time: func(x float64) float64 {
			t := overhead + x/peak
			if x > mem {
				t *= 1 + severity*(x/mem-1)
			}
			return t
		}}
	case ShapeNoisy:
		base := g.Proc(ShapeSmooth).Time
		rel := g.uniform(0.02, 0.08)
		jseed := g.rng.Int63()
		return Proc{Name: name, Shape: shape, Time: func(x float64) float64 {
			return base(x) * (1 + rel*jitter(jseed, x))
		}}
	case ShapeNonMonotonic:
		amp := g.uniform(0.1, 0.3)
		wavelength := g.uniform(300, 5000)
		o := g.uniform(0, 1e-4)
		return Proc{Name: name, Shape: shape, Time: func(x float64) float64 {
			s := peak * (1 + amp*math.Sin(x/wavelength))
			return o + x/s
		}}
	default:
		panic(fmt.Sprintf("verify: unknown shape %q", shape))
	}
}

// jitter is a deterministic pseudo-noise function of x in [-1, 1]: the
// size axis is divided into cells of 64 units and each cell draws its
// jitter by hashing the cell index with the seed (splitmix64 finalizer).
func jitter(seed int64, x float64) float64 {
	cell := uint64(seed) + uint64(math.Floor(x/64))*0x9e3779b97f4a7c15
	cell ^= cell >> 30
	cell *= 0xbf58476d1ce4e5b9
	cell ^= cell >> 27
	cell *= 0x94d049bb133111eb
	cell ^= cell >> 31
	return float64(cell>>11)/float64(1<<53)*2 - 1
}

// Platform generates n processes drawing shapes round-robin from the
// given set (or from all shapes when the set is empty).
func (g *Gen) Platform(n int, shapes ...Shape) []Proc {
	if len(shapes) == 0 {
		shapes = Shapes()
	}
	procs := make([]Proc, n)
	for i := range procs {
		procs[i] = g.Proc(shapes[i%len(shapes)])
	}
	return procs
}

// ExactModels wraps each process's exact time function as a core.Model.
func ExactModels(procs []Proc) []core.Model {
	ms := make([]core.Model, len(procs))
	for i, p := range procs {
		ms[i] = NewFuncModel(p.Name, p.Time)
	}
	return ms
}

// Models samples each process noiselessly over a geometric grid of n
// sizes spanning [lo, hi] and fits a model of the given kind — the fitted
// counterpart of ExactModels, carrying the interpolation error a real
// benchmark-built model would.
func Models(procs []Proc, kind string, lo, hi, n int) ([]core.Model, error) {
	ms := make([]core.Model, len(procs))
	for i, p := range procs {
		m, err := model.New(kind)
		if err != nil {
			return nil, err
		}
		for _, d := range core.LogSizes(lo, hi, n) {
			if err := m.Update(core.Point{D: d, Time: math.Max(p.Time(float64(d)), 1e-12), Reps: 1}); err != nil {
				return nil, fmt.Errorf("verify: fitting %s to %s at d=%d: %w", kind, p.Name, d, err)
			}
		}
		ms[i] = m
	}
	return ms, nil
}
