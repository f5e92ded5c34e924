package main

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// A seed must give a byte-identical request stream, warm-up requests
// included; another seed a different one.
func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for _, phase := range []int64{tagWarmup, tagTimed} {
			a, b, c := newStream(w, 7, phase), newStream(w, 7, phase), newStream(w, 8, phase)
			differs := false
			for i := 0; i < 500; i++ {
				ra, rb, rc := a.next(), b.next(), c.next()
				if ra.Endpoint != rb.Endpoint || !bytes.Equal(ra.Body, rb.Body) || !reflect.DeepEqual(ra.Cold, rb.Cold) {
					t.Fatalf("%s phase %d request %d differs between two streams of seed 7:\n%s\n%s", w.name, phase, i, ra.Body, rb.Body)
				}
				differs = differs || !bytes.Equal(ra.Body, rc.Body)
			}
			if !differs {
				t.Errorf("%s phase %d: seeds 7 and 8 gave the same 500 requests", w.name, phase)
			}
		}
		if !reflect.DeepEqual(warmRequests(w, 7), warmRequests(w, 7)) {
			t.Errorf("%s: warm-up requests differ between two calls with one seed", w.name)
		}
	}
}

// Cold requests name never-seen keys: no fresh key repeats within a phase
// or across the warm-up and timed phases.
func TestColdKeysAreNeverSeen(t *testing.T) {
	w, err := workloadByName("cold-sweep")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, phase := range []int64{tagWarmup, tagTimed} {
		s := newStream(w, 3, phase)
		for i := 0; i < 2000; i++ {
			for _, k := range s.next().Cold {
				if seen[k.Device.Seed] {
					t.Fatalf("phase %d request %d repeats fresh key seed %d", phase, i, k.Device.Seed)
				}
				seen[k.Device.Seed] = true
			}
		}
	}
}

func TestPercentileResolvesOnlyWithTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		q        float64
		value    float64
		beyond   int
		resolved bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{100, 0.90, 90, 10, true},
		{99, 0.90, 90, 9, false},
		{5, 0.50, 3, 2, false},
		{21, 0.50, 11, 10, true},
	} {
		got := percentile(samples(tc.n), tc.q)
		want := quantile{Q: tc.q, Value: tc.value, N: tc.n, Beyond: tc.beyond, Resolved: tc.resolved}
		if got != want {
			t.Errorf("percentile(1..%d, %g) = %+v, want %+v", tc.n, tc.q, got, want)
		}
	}
	// A failed request counts beyond every latency limit.
	xs := samples(100)
	xs[0], xs[1] = math.Inf(1), math.Inf(1)
	if got := percentile(xs, 0.99); !math.IsInf(got.Value, 1) {
		t.Errorf("p99 of 98 latencies and two failures = %g, want +Inf", got.Value)
	}
	if got := percentile(nil, 0.5); got.N != 0 || !math.IsNaN(got.Value) || got.Resolved {
		t.Errorf("percentile of no samples = %+v", got)
	}
}
