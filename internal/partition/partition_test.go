package partition

import (
	"math"
	"testing"
	"testing/quick"

	"fupermod/internal/core"
	"fupermod/internal/model"
	"fupermod/internal/platform"
)

// buildModels measures the given devices noiselessly over a log grid and
// feeds the points into fresh models of the requested kind.
func buildModels(t *testing.T, kind string, devs []platform.Device, lo, hi, n int) []core.Model {
	t.Helper()
	ms := make([]core.Model, len(devs))
	for i, dev := range devs {
		m, err := model.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range core.LogSizes(lo, hi, n) {
			if err := m.Update(core.Point{D: d, Time: dev.BaseTime(float64(d)), Reps: 1}); err != nil {
				t.Fatal(err)
			}
		}
		ms[i] = m
	}
	return ms
}

func twoSpeedDevices() []platform.Device {
	// Constant-speed devices (no cliffs): 300 and 100 units/s.
	return []platform.Device{
		&platform.CPUCore{DevName: "fast", Peak: 300},
		&platform.CPUCore{DevName: "slow", Peak: 100},
	}
}

func allPartitioners() []core.Partitioner {
	return []core.Partitioner{Even(), Constant(), Geometric(), Numerical()}
}

func TestInputValidation(t *testing.T) {
	for _, p := range allPartitioners() {
		if _, err := p.Partition(nil, 10); err == nil {
			t.Errorf("%s: empty models should error", p.Name())
		}
		if _, err := p.Partition([]core.Model{nil}, 10); err == nil {
			t.Errorf("%s: nil model should error", p.Name())
		}
		if _, err := p.Partition([]core.Model{model.NewConstant()}, -1); err == nil {
			t.Errorf("%s: negative D should error", p.Name())
		}
	}
}

func TestZeroProblemSize(t *testing.T) {
	ms := buildModels(t, model.KindPiecewise, twoSpeedDevices(), 10, 1000, 8)
	for _, p := range allPartitioners() {
		d, err := p.Partition(ms, 0)
		if err != nil {
			t.Errorf("%s: D=0 should succeed: %v", p.Name(), err)
			continue
		}
		if err := d.Validate(); err != nil || d.D != 0 {
			t.Errorf("%s: bad zero dist %v", p.Name(), d)
		}
	}
}

func TestEvenIgnoresSpeeds(t *testing.T) {
	ms := buildModels(t, model.KindConstant, twoSpeedDevices(), 10, 1000, 4)
	d, err := Even().Partition(ms, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Parts[0].D != 5 || d.Parts[1].D != 5 {
		t.Errorf("even parts = %v", d.Sizes())
	}
	// Times must be filled from the models: slow part takes 3× longer.
	r := d.Parts[1].Time / d.Parts[0].Time
	if math.Abs(r-3) > 0.01 {
		t.Errorf("time ratio = %g, want 3", r)
	}
}

func TestConstantProportional(t *testing.T) {
	ms := buildModels(t, model.KindConstant, twoSpeedDevices(), 10, 1000, 4)
	d, err := Constant().Partition(ms, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3:1 speeds → 300:100 split.
	if d.Parts[0].D != 300 || d.Parts[1].D != 100 {
		t.Errorf("parts = %v, want [300 100]", d.Sizes())
	}
}

func TestGeometricEqualisesTimes(t *testing.T) {
	devs := []platform.Device{
		platform.FastCore("fast"),
		platform.SlowCore("slow"),
		platform.NetlibBLASCore(),
	}
	ms := buildModels(t, model.KindPiecewise, devs, 16, 30000, 30)
	d, err := Geometric().Partition(ms, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if imb := d.Imbalance(); imb > 1.05 {
		t.Errorf("geometric imbalance = %g, want <= 1.05 (times %v)", imb, d.Parts)
	}
	// The fast core must get the largest share.
	if !(d.Parts[0].D > d.Parts[1].D && d.Parts[0].D > d.Parts[2].D) {
		t.Errorf("fast core should dominate: %v", d.Sizes())
	}
}

func TestNumericalEqualisesTimes(t *testing.T) {
	devs := []platform.Device{
		platform.FastCore("fast"),
		platform.SlowCore("slow"),
		platform.DefaultGPU("gpu"),
	}
	ms := buildModels(t, model.KindAkima, devs, 16, 60000, 40)
	d, err := Numerical().Partition(ms, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if imb := d.Imbalance(); imb > 1.05 {
		t.Errorf("numerical imbalance = %g (parts %v)", imb, d.Parts)
	}
	// GPU is fastest at these sizes and must carry the biggest share.
	if !(d.Parts[2].D > d.Parts[0].D) {
		t.Errorf("gpu should dominate: %v", d.Sizes())
	}
}

func TestGeometricVsNumericalAgree(t *testing.T) {
	devs := []platform.Device{platform.FastCore("a"), platform.SlowCore("b")}
	pw := buildModels(t, model.KindPiecewise, devs, 16, 30000, 30)
	ak := buildModels(t, model.KindAkima, devs, 16, 30000, 30)
	D := 24000
	dg, err := Geometric().Partition(pw, D)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := Numerical().Partition(ak, D)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dg.Parts {
		diff := math.Abs(float64(dg.Parts[i].D - dn.Parts[i].D))
		if diff > 0.03*float64(D) {
			t.Errorf("algorithms disagree on part %d: %d vs %d", i, dg.Parts[i].D, dn.Parts[i].D)
		}
	}
}

func TestNumericalSingleProcess(t *testing.T) {
	ms := buildModels(t, model.KindAkima, []platform.Device{platform.FastCore("f")}, 16, 10000, 10)
	d, err := Numerical().Partition(ms, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if d.Parts[0].D != 1234 {
		t.Errorf("single process gets everything: %v", d.Sizes())
	}
}

func TestGeometricBeatsConstantAcrossCliff(t *testing.T) {
	// One device pages beyond 8000 units. A CPM built from small-size
	// benchmarks overloads it; the FPM sees the cliff coming. This is the
	// paper's central claim (challenge (i)).
	devs := []platform.Device{platform.FastCore("fast"), platform.PagingCore("pager")}
	D := 30000

	// CPM from a single small benchmark at d=2000 (the classic approach).
	cpms := make([]core.Model, len(devs))
	for i, dev := range devs {
		m := model.NewConstant()
		if err := m.Update(core.Point{D: 2000, Time: dev.BaseTime(2000), Reps: 1}); err != nil {
			t.Fatal(err)
		}
		cpms[i] = m
	}
	dc, err := Constant().Partition(cpms, D)
	if err != nil {
		t.Fatal(err)
	}
	fpms := buildModels(t, model.KindPiecewise, devs, 16, 40000, 40)
	df, err := Geometric().Partition(fpms, D)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both on the TRUE device times.
	trueMakespan := func(d *core.Dist) float64 {
		m := 0.0
		for i, p := range d.Parts {
			if tt := devs[i].BaseTime(float64(p.D)); tt > m {
				m = tt
			}
		}
		return m
	}
	tc, tf := trueMakespan(dc), trueMakespan(df)
	if tf >= tc {
		t.Errorf("FPM partitioning (%.3gs) should beat CPM (%.3gs) across a paging cliff", tf, tc)
	}
	// And the FPM must assign the pager less than the CPM did.
	if df.Parts[1].D >= dc.Parts[1].D {
		t.Errorf("FPM should shrink the paging device's share: %d vs %d", df.Parts[1].D, dc.Parts[1].D)
	}
}

func TestPartitionInvariantsProperty(t *testing.T) {
	devs := []platform.Device{
		platform.FastCore("a"),
		platform.SlowCore("b"),
		platform.NetlibBLASCore(),
		platform.PagingCore("d"),
	}
	pw := buildModels(t, model.KindPiecewise, devs, 16, 30000, 25)
	ak := buildModels(t, model.KindAkima, devs, 16, 30000, 25)
	parts := map[string][]core.Model{
		"constant":  pw,
		"geometric": pw,
		"numerical": ak,
		"even":      pw,
	}
	algos := map[string]core.Partitioner{
		"constant": Constant(), "geometric": Geometric(), "numerical": Numerical(), "even": Even(),
	}
	f := func(dRaw uint16, nDev uint8) bool {
		D := int(dRaw)%50000 + 1
		k := 1 + int(nDev)%4
		for name, algo := range algos {
			ms := parts[name][:k]
			dist, err := algo.Partition(ms, D)
			if err != nil {
				return false
			}
			if dist.Validate() != nil || dist.D != D || len(dist.Parts) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGeometricMonotoneInSpeed(t *testing.T) {
	// Strictly faster device must never receive a smaller share.
	mkModels := func(peaks []float64) []core.Model {
		ms := make([]core.Model, len(peaks))
		for i, p := range peaks {
			dev := &platform.CPUCore{DevName: "c", Peak: p}
			m := model.NewPiecewise()
			for _, d := range core.LogSizes(10, 10000, 10) {
				m.Update(core.Point{D: d, Time: dev.BaseTime(float64(d)), Reps: 1})
			}
			ms[i] = m
		}
		return ms
	}
	ms := mkModels([]float64{100, 200, 400, 800})
	d, err := Geometric().Partition(ms, 15000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.Parts); i++ {
		if d.Parts[i].D < d.Parts[i-1].D {
			t.Errorf("faster device got less: %v", d.Sizes())
		}
	}
	// 1:2:4:8 speeds → shares should be near-proportional.
	want := []float64{1000, 2000, 4000, 8000}
	for i, w := range want {
		if math.Abs(float64(d.Parts[i].D)-w) > 0.02*w {
			t.Errorf("share %d = %d, want ≈ %g", i, d.Parts[i].D, w)
		}
	}
}

func TestSmallDLargeN(t *testing.T) {
	// More processes than units: some get zero; totals still exact.
	devs := make([]platform.Device, 8)
	for i := range devs {
		devs[i] = &platform.CPUCore{DevName: "c", Peak: float64(100 * (i + 1))}
	}
	ms := buildModels(t, model.KindPiecewise, devs, 1, 100, 6)
	for _, p := range allPartitioners() {
		d, err := p.Partition(ms, 3)
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			continue
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestInvertTimeNumericFallback(t *testing.T) {
	// Constant models have no InverseTime method: numeric inversion path.
	m := model.NewConstant()
	if err := m.Update(core.Point{D: 100, Time: 1, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	x, err := invertTime(m, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-250) > 1e-3 {
		t.Errorf("invertTime = %g, want 250", x)
	}
	if x, _ := invertTime(m, 0); x != 0 {
		t.Errorf("tau=0 should invert to 0, got %g", x)
	}
}

func TestFinalizeSumMatchesExactly(t *testing.T) {
	ms := buildModels(t, model.KindPiecewise, twoSpeedDevices(), 10, 5000, 10)
	// Deliberately fractional shares.
	d, err := finalize(ms, 1001, []float64{750.7, 250.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Parts[0].D+d.Parts[1].D != 1001 {
		t.Errorf("sum = %d", d.Parts[0].D+d.Parts[1].D)
	}
	// Over-assigned shares get shaved.
	d2, err := finalize(ms, 10, []float64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Non-finite shares rejected.
	if _, err := finalize(ms, 10, []float64{math.NaN(), 5}); err == nil {
		t.Error("NaN share should error")
	}
}

// TestFinalizeNearIntLimit: shares of a D at the top of the int range
// that round up in float64 once overflowed the running sum, leaving
// finalize to add ~2^63 units one at a time; a share rounding past the
// range wrapped negative on conversion.
func TestFinalizeNearIntLimit(t *testing.T) {
	ms := buildModels(t, model.KindPiecewise, twoSpeedDevices(), 10, 5000, 10)
	D := math.MaxInt - 807
	for _, xs := range [][]float64{
		{7688540518808911872, 1534831518045868032}, // Σ floors > math.MaxInt
		{math.Ldexp(1, 63), 0},                     // past the int range
	} {
		d, err := finalize(ms, D, xs)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("shares %v: %v", xs, err)
		}
	}
	for _, p := range []core.Partitioner{Geometric(), Numerical()} {
		d, err := p.Partition(ms, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestWithOverheadValidation(t *testing.T) {
	ms := buildModels(t, model.KindPiecewise, twoSpeedDevices(), 10, 1000, 5)
	if _, err := WithOverhead(ms, nil); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := WithOverhead([]core.Model{nil}, []func(float64) float64{func(d float64) float64 { return 0 }}); err == nil {
		t.Error("nil model should error")
	}
	if _, err := WithOverhead(ms, []func(float64) float64{nil, nil}); err == nil {
		t.Error("nil overhead should error")
	}
	wrapped, err := WithOverhead(ms, []func(float64) float64{
		func(d float64) float64 { return 1 },
		func(d float64) float64 { return -1 }, // negative at eval time
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped[1].Time(10); err == nil {
		t.Error("negative overhead should error at evaluation")
	}
	if name := wrapped[0].Name(); name != model.KindPiecewise+"+overhead" {
		t.Errorf("Name = %q", name)
	}
}

func TestCommAwarePartitioningShiftsWork(t *testing.T) {
	// Two identical devices, but process 1 pays a steep per-unit
	// communication cost (a remote rank). Comm-oblivious balance splits
	// evenly; comm-aware balance must shift work to the cheap process so
	// that total times (compute+comm) equalise.
	devs := []platform.Device{
		&platform.CPUCore{DevName: "local", Peak: 1000},
		&platform.CPUCore{DevName: "remote", Peak: 1000},
	}
	ms := buildModels(t, model.KindPiecewise, devs, 10, 20000, 15)
	const D = 10000
	plain, err := Geometric().Partition(ms, D)
	if err != nil {
		t.Fatal(err)
	}
	if diff := plain.Parts[0].D - plain.Parts[1].D; diff < -50 || diff > 50 {
		t.Fatalf("identical devices should split evenly, got %v", plain.Sizes())
	}
	commCost := func(perUnit float64) func(float64) float64 {
		return func(d float64) float64 { return perUnit * d }
	}
	wrapped, err := WithOverhead(ms, []func(float64) float64{
		commCost(0),    // local: free
		commCost(1e-3), // remote: 1 ms per unit — as slow as its compute
	})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Geometric().Partition(wrapped, D)
	if err != nil {
		t.Fatal(err)
	}
	if err := aware.Validate(); err != nil {
		t.Fatal(err)
	}
	// Remote compute speed 1000 u/s → 1 ms/unit compute + 1 ms/unit comm:
	// effectively half speed. Expect roughly a 2:1 split.
	if aware.Parts[0].D < aware.Parts[1].D*3/2 {
		t.Errorf("comm-aware split should favour the local rank: %v", aware.Sizes())
	}
	// Total times near-equal under the wrapped models.
	t0, _ := wrapped[0].Time(float64(aware.Parts[0].D))
	t1, _ := wrapped[1].Time(float64(aware.Parts[1].D))
	if r := math.Max(t0, t1) / math.Min(t0, t1); r > 1.05 {
		t.Errorf("comm-aware imbalance %g", r)
	}
}

func TestWithOverheadNumericalPartitioner(t *testing.T) {
	devs := []platform.Device{platform.FastCore("a"), platform.SlowCore("b")}
	ms := buildModels(t, model.KindAkima, devs, 16, 30000, 20)
	wrapped, err := WithOverhead(ms, []func(float64) float64{
		func(d float64) float64 { return 0.01 + 1e-6*d },
		func(d float64) float64 { return 0.05 + 5e-6*d },
	})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Numerical().Partition(wrapped, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.Validate(); err != nil {
		t.Fatal(err)
	}
	if imb := dist.Imbalance(); imb > 1.05 {
		t.Errorf("imbalance %g", imb)
	}
}
