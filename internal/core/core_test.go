package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// fakeKernel returns synthetic times: base + d*perUnit with optional noise
// and injectable failures.
type fakeKernel struct {
	name      string
	perUnit   float64
	noise     float64
	rng       *rand.Rand
	setupErr  error
	runErr    error
	failOnRep int // fail on the k-th Run (1-based), 0 = never
	setups    int
	closes    int
}

func (k *fakeKernel) Name() string             { return k.name }
func (k *fakeKernel) Complexity(d int) float64 { return float64(d) * 1000 }
func (k *fakeKernel) Setup(d int) (Instance, error) {
	if k.setupErr != nil {
		return nil, k.setupErr
	}
	k.setups++
	return &fakeInstance{k: k, d: d}, nil
}

type fakeInstance struct {
	k    *fakeKernel
	d    int
	runs int
}

func (i *fakeInstance) Run() (float64, error) {
	i.runs++
	if i.k.runErr != nil && (i.k.failOnRep == 0 || i.runs == i.k.failOnRep) {
		return 0, i.k.runErr
	}
	t := 0.001 + float64(i.d)*i.k.perUnit
	if i.k.noise > 0 {
		t *= 1 + i.k.noise*math.Abs(i.k.rng.NormFloat64())
	}
	return t, nil
}

func (i *fakeInstance) Close() error {
	i.k.closes++
	return nil
}

func newFake(noise float64) *fakeKernel {
	return &fakeKernel{name: "fake", perUnit: 1e-5, noise: noise, rng: rand.New(rand.NewSource(11))}
}

func TestBenchmarkNoiselessStopsAtMinReps(t *testing.T) {
	k := newFake(0)
	p, err := Benchmark(k, 100, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps != DefaultPrecision.MinReps {
		t.Errorf("noiseless kernel should stop at MinReps=%d, took %d", DefaultPrecision.MinReps, p.Reps)
	}
	if want := 0.001 + 100*1e-5; math.Abs(p.Time-want) > 1e-12 {
		t.Errorf("Time = %g, want %g", p.Time, want)
	}
	if p.D != 100 {
		t.Errorf("D = %d, want 100", p.D)
	}
	if k.setups != 1 || k.closes != 1 {
		t.Errorf("setup/close called %d/%d times, want 1/1", k.setups, k.closes)
	}
}

func TestBenchmarkNoisyTakesMoreReps(t *testing.T) {
	k := newFake(0.3) // 30% noise needs many reps for a 2.5% CI
	p, err := Benchmark(k, 100, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps <= DefaultPrecision.MinReps {
		t.Errorf("noisy kernel should need more than MinReps, took %d", p.Reps)
	}
	if p.CI <= 0 {
		t.Error("CI should be positive for repeated noisy measurements")
	}
}

func TestBenchmarkRespectsMaxReps(t *testing.T) {
	k := newFake(2.0) // extreme noise: cap must kick in
	prec := Precision{MinReps: 2, MaxReps: 7, Confidence: 0.95, RelErr: 0.001}
	p, err := Benchmark(k, 10, prec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps != 7 {
		t.Errorf("Reps = %d, want cap 7", p.Reps)
	}
}

func TestBenchmarkRespectsTimeBudget(t *testing.T) {
	k := newFake(1.5)
	// Each run takes ~1.001s of (virtual) time; budget of 3s should stop
	// well before the 1000-rep cap.
	k.perUnit = 1e-2
	prec := Precision{MinReps: 2, MaxReps: 1000, Confidence: 0.95, RelErr: 1e-9, MaxSeconds: 3}
	p, err := Benchmark(k, 100, prec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps >= 100 {
		t.Errorf("time budget did not stop the benchmark: %d reps", p.Reps)
	}
}

func TestBenchmarkErrors(t *testing.T) {
	if _, err := Benchmark(newFake(0), 0, DefaultPrecision); err == nil {
		t.Error("d=0 should error")
	}
	k := newFake(0)
	k.setupErr = errors.New("alloc failed")
	if _, err := Benchmark(k, 10, DefaultPrecision); err == nil || !errors.Is(err, k.setupErr) {
		t.Errorf("setup error should propagate, got %v", err)
	}
	k = newFake(0)
	k.runErr = errors.New("kernel crashed")
	k.failOnRep = 3
	if _, err := Benchmark(k, 10, DefaultPrecision); err == nil || !errors.Is(err, k.runErr) {
		t.Errorf("run error should propagate, got %v", err)
	}
	if k.closes != 1 {
		t.Errorf("instance must be closed on run error, closes=%d", k.closes)
	}
	if _, err := Benchmark(newFake(0), 10, Precision{}); err == nil {
		t.Error("zero precision should be rejected")
	}
}

func TestPrecisionValidate(t *testing.T) {
	bad := []Precision{
		{MinReps: 0, MaxReps: 5, Confidence: 0.9, RelErr: 0.1},
		{MinReps: 5, MaxReps: 2, Confidence: 0.9, RelErr: 0.1},
		{MinReps: 1, MaxReps: 5, Confidence: 1.2, RelErr: 0.1},
		{MinReps: 1, MaxReps: 5, Confidence: 0.9, RelErr: 0},
		{MinReps: 1, MaxReps: 5, Confidence: 0.9, RelErr: 0.1, MaxSeconds: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad precision %d should fail: %+v", i, p)
		}
	}
	if err := DefaultPrecision.Validate(); err != nil {
		t.Errorf("DefaultPrecision invalid: %v", err)
	}
}

func TestPointSpeedAndValidate(t *testing.T) {
	p := Point{D: 100, Time: 2}
	if p.Speed() != 50 {
		t.Errorf("Speed = %g, want 50", p.Speed())
	}
	if (Point{D: 100, Time: 0}).Speed() != 0 {
		t.Error("zero-time point should have zero speed")
	}
	if err := (Point{D: 0, Time: 1}).Validate(); err == nil {
		t.Error("d=0 point should be invalid")
	}
	if err := (Point{D: 1, Time: -1}).Validate(); err == nil {
		t.Error("negative-time point should be invalid")
	}
	if err := (Point{D: 1, Time: 1}).Validate(); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
}

func TestSweepAndCost(t *testing.T) {
	k := newFake(0)
	pts, err := Sweep(k, []int{10, 20, 40}, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[2].D != 40 {
		t.Fatalf("unexpected sweep result %+v", pts)
	}
	cost := BenchmarkCost(pts)
	want := 0.0
	for _, p := range pts {
		want += p.Time * float64(p.Reps)
	}
	if cost != want {
		t.Errorf("BenchmarkCost = %g, want %g", cost, want)
	}
	// Error mid-sweep returns the points measured so far.
	k2 := newFake(0)
	k2.runErr = errors.New("boom")
	k2.failOnRep = 1
	pts2, err := Sweep(k2, []int{10, 20}, DefaultPrecision)
	if err == nil {
		t.Error("sweep should propagate kernel error")
	}
	if len(pts2) != 0 {
		t.Errorf("failed first sweep point should leave empty slice, got %d", len(pts2))
	}
}

func TestLogSizes(t *testing.T) {
	s := LogSizes(10, 10000, 7)
	if len(s) != 7 {
		t.Fatalf("len = %d, want 7: %v", len(s), s)
	}
	if s[0] != 10 || s[len(s)-1] != 10000 {
		t.Errorf("endpoints = %d, %d", s[0], s[len(s)-1])
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Errorf("sizes not strictly increasing: %v", s)
		}
	}
	// Degenerate requests.
	if LogSizes(0, 10, 5) != nil || LogSizes(10, 5, 3) != nil || LogSizes(1, 10, 0) != nil {
		t.Error("invalid requests should return nil")
	}
	if got := LogSizes(5, 500, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("n=1 should give [lo], got %v", got)
	}
	// Dense range smaller than n: dedup keeps strict monotonicity.
	s2 := LogSizes(1, 5, 10)
	for i := 1; i < len(s2); i++ {
		if s2[i] <= s2[i-1] {
			t.Errorf("dedup failed: %v", s2)
		}
	}
}

// TestLogSizesBounds pins the grid invariants — every size in [lo, hi],
// strictly increasing, at most n sizes — over a sweep of dense and sparse
// ranges. Regression: the dedup bump used to push the last size past hi
// when the grid was dense relative to the range, e.g. LogSizes(1, 3, 5)
// returned [1 2 3 4].
func TestLogSizesBounds(t *testing.T) {
	if got := LogSizes(1, 3, 5); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("LogSizes(1, 3, 5) = %v, want [1 2 3]", got)
	}
	cases := []struct{ lo, hi, n int }{
		{1, 3, 5}, {1, 1, 5}, {1, 2, 9}, {2, 7, 20}, {5, 6, 3},
		{1, 100, 200}, {10, 10000, 7}, {16, 5000, 40}, {99, 100, 10},
		{1, 1000000, 3}, {7, 7, 1}, {3, 50, 50},
		// At the top of the int range a size converted from float64 used
		// to wrap negative, and the dedup bump past hi to wrap too.
		{math.MaxInt, math.MaxInt, 4096}, {math.MaxInt - 5000, math.MaxInt, 100}, {1, math.MaxInt, 4096},
	}
	for _, c := range cases {
		s := LogSizes(c.lo, c.hi, c.n)
		if len(s) == 0 {
			t.Errorf("LogSizes(%d, %d, %d) returned no sizes", c.lo, c.hi, c.n)
			continue
		}
		if len(s) > c.n {
			t.Errorf("LogSizes(%d, %d, %d): %d sizes exceed n", c.lo, c.hi, c.n, len(s))
		}
		for i, d := range s {
			if d < c.lo || d > c.hi {
				t.Errorf("LogSizes(%d, %d, %d): size %d outside [lo, hi]: %v", c.lo, c.hi, c.n, d, s)
			}
			if i > 0 && d <= s[i-1] {
				t.Errorf("LogSizes(%d, %d, %d): not strictly increasing: %v", c.lo, c.hi, c.n, s)
			}
		}
		if s[0] != c.lo {
			t.Errorf("LogSizes(%d, %d, %d): first size %d != lo", c.lo, c.hi, c.n, s[0])
		}
	}
}

func TestNewEvenDist(t *testing.T) {
	d, err := NewEvenDist(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Parts[0].D != 4 || d.Parts[1].D != 3 || d.Parts[2].D != 3 {
		t.Errorf("parts = %v", d.Sizes())
	}
	if _, err := NewEvenDist(10, 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewEvenDist(-1, 2); err == nil {
		t.Error("negative D should error")
	}
}

func TestEvenDistProperty(t *testing.T) {
	f := func(dRaw uint16, nRaw uint8) bool {
		D := int(dRaw)
		n := 1 + int(nRaw)%64
		dist, err := NewEvenDist(D, n)
		if err != nil {
			return false
		}
		if dist.Validate() != nil {
			return false
		}
		mn, mx := dist.Parts[0].D, dist.Parts[0].D
		for _, p := range dist.Parts {
			if p.D < mn {
				mn = p.D
			}
			if p.D > mx {
				mx = p.D
			}
		}
		return mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistHelpers(t *testing.T) {
	d := &Dist{D: 30, Parts: []Part{{10, 1.0}, {20, 2.0}, {0, 0}}}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.MaxTime() != 2 {
		t.Errorf("MaxTime = %g", d.MaxTime())
	}
	if d.Imbalance() != 2 {
		t.Errorf("Imbalance = %g, want 2 (zero part ignored)", d.Imbalance())
	}
	cp := d.Copy()
	cp.Parts[0].D = 999
	if d.Parts[0].D == 999 {
		t.Error("Copy must be deep")
	}
	prev := &Dist{D: 30, Parts: []Part{{20, 0}, {10, 0}, {0, 0}}}
	ch, err := d.MaxRelChange(prev)
	if err != nil {
		t.Fatal(err)
	}
	if ch != 1.0 { // part 1: |20-10|/10 = 1
		t.Errorf("MaxRelChange = %g, want 1", ch)
	}
	if _, err := d.MaxRelChange(&Dist{D: 1, Parts: []Part{{1, 0}}}); err == nil {
		t.Error("size mismatch should error")
	}
	if s := d.String(); s == "" {
		t.Error("String should be non-empty")
	}
	bad := &Dist{D: 5, Parts: []Part{{2, 0}, {2, 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("sum mismatch should fail validation")
	}
	neg := &Dist{D: 0, Parts: []Part{{-1, 0}, {1, 0}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative part should fail validation")
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	one := &Dist{D: 5, Parts: []Part{{5, 1}}}
	if one.Imbalance() != 1 {
		t.Error("single loaded part is balanced by definition")
	}
	inf := &Dist{D: 4, Parts: []Part{{2, 0}, {2, 1}}}
	if !math.IsInf(inf.Imbalance(), 1) {
		t.Error("zero predicted time on loaded part should be +Inf imbalance")
	}
}

func TestPartitionerFunc(t *testing.T) {
	p := PartitionerFunc{
		AlgoName: "trivial",
		Func: func(models []Model, D int) (*Dist, error) {
			return NewEvenDist(D, len(models))
		},
	}
	if p.Name() != "trivial" {
		t.Error("name wrong")
	}
	d, err := p.Partition(make([]Model, 4), 9)
	if err != nil || d.D != 9 || len(d.Parts) != 4 {
		t.Errorf("partition wrong: %v, %v", d, err)
	}
}

func TestModelSpeedErrors(t *testing.T) {
	m := stubModel{t: 2}
	s, err := ModelSpeed(m, 10)
	if err != nil || s != 5 {
		t.Errorf("speed = %g, %v; want 5", s, err)
	}
	if _, err := ModelSpeed(m, 0); err == nil {
		t.Error("x=0 should error")
	}
	if _, err := ModelSpeed(stubModel{t: -1}, 5); err == nil {
		t.Error("non-positive predicted time should error")
	}
	if _, err := ModelSpeed(stubModel{err: ErrEmptyModel}, 5); err == nil {
		t.Error("model error should propagate")
	}
}

type stubModel struct {
	t   float64
	err error
}

func (s stubModel) Name() string { return "stub" }
func (s stubModel) Time(x float64) (float64, error) {
	if s.err != nil {
		return 0, s.err
	}
	return s.t, nil
}
func (s stubModel) Update(p Point) error { return nil }
func (s stubModel) Points() []Point      { return nil }

func TestUpdateAll(t *testing.T) {
	rec := &recordingModel{}
	pts := []Point{{D: 1, Time: 1}, {D: 2, Time: 2}}
	if err := UpdateAll(rec, pts); err != nil {
		t.Fatal(err)
	}
	if len(rec.pts) != 2 {
		t.Errorf("got %d updates", len(rec.pts))
	}
	rec.failAt = 1
	rec.pts = nil
	if err := UpdateAll(rec, pts); err == nil {
		t.Error("update failure should propagate")
	}
}

type recordingModel struct {
	pts    []Point
	failAt int
}

func (r *recordingModel) Name() string { return "recording" }
func (r *recordingModel) Time(x float64) (float64, error) {
	return 0, fmt.Errorf("unused")
}
func (r *recordingModel) Update(p Point) error {
	if r.failAt > 0 && len(r.pts)+1 >= r.failAt {
		return fmt.Errorf("injected")
	}
	r.pts = append(r.pts, p)
	return nil
}
func (r *recordingModel) Points() []Point { return r.pts }

func TestBenchmarkWarmup(t *testing.T) {
	k := newFake(0)
	prec := DefaultPrecision
	prec.Warmup = 4
	p, err := Benchmark(k, 50, prec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps != prec.MinReps {
		t.Errorf("Reps = %d, want %d (warmups excluded)", p.Reps, prec.MinReps)
	}
	// The instance ran warmup + measured repetitions.
	if k.setups != 1 {
		t.Errorf("setups = %d", k.setups)
	}
	// Warmup failures propagate.
	k2 := newFake(0)
	k2.runErr = errors.New("warmup crash")
	k2.failOnRep = 1
	prec2 := DefaultPrecision
	prec2.Warmup = 1
	if _, err := Benchmark(k2, 50, prec2); err == nil {
		t.Error("warmup failure should propagate")
	}
	// Negative warmup rejected.
	bad := DefaultPrecision
	bad.Warmup = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative warmup should be invalid")
	}
}

func TestBenchmarkMinRepsOne(t *testing.T) {
	// Regression: MinReps=1 must not fail on the undefined single-sample
	// confidence interval — it takes a second repetition instead.
	k := newFake(0)
	p, err := Benchmark(k, 10, Precision{MinReps: 1, MaxReps: 10, Confidence: 0.95, RelErr: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reps < 2 {
		t.Errorf("noiseless run should still take 2 reps to certify, got %d", p.Reps)
	}
	// MaxReps=1 short-circuits before any CI evaluation.
	k2 := newFake(0)
	p2, err := Benchmark(k2, 10, Precision{MinReps: 1, MaxReps: 1, Confidence: 0.95, RelErr: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Reps != 1 || p2.CI != 0 {
		t.Errorf("single-rep benchmark: reps=%d ci=%g", p2.Reps, p2.CI)
	}
}
