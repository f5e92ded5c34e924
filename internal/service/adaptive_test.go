package service

import (
	"bytes"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestAdaptiveWindowController pins the controller's policy with
// synthetic timestamps — no sleeping, fully deterministic.
func TestAdaptiveWindowController(t *testing.T) {
	const max = 10 * time.Millisecond
	a := adaptiveWindow{max: max}
	t0 := time.Unix(1000, 0)

	// First-ever arrival: no gap information, treated as busy.
	if w := a.observe(t0); w != max {
		t.Errorf("first arrival window %v, want full %v", w, max)
	}
	// Rapid-fire arrivals keep the ewma small: stay at the full window.
	now := t0
	for i := 0; i < 5; i++ {
		now = now.Add(time.Millisecond)
		if w := a.observe(now); w != max {
			t.Errorf("busy arrival %d window %v, want full %v", i, w, max)
		}
	}
	// Long gaps drive the ewma past 4·max: the window must collapse to 0.
	for i := 0; i < 6; i++ {
		now = now.Add(20 * max)
		a.observe(now)
	}
	now = now.Add(20 * max)
	if w := a.observe(now); w != 0 {
		t.Errorf("idle window %v, want 0", w)
	}
	// A ramp point: ewma exactly 3·max sits halfway between the busy
	// (2·max) and idle (4·max) thresholds — half the window.
	a2 := adaptiveWindow{max: max, ewma: 3 * max}
	if w := a2.observe(now); w != max/2 {
		t.Errorf("midpoint window %v, want %v", w, max/2)
	}
	// A traffic burst after idleness halves the ewma per arrival, so the
	// window recovers quickly.
	for i := 0; i < 8; i++ {
		now = now.Add(time.Millisecond)
		a.observe(now)
	}
	now = now.Add(time.Millisecond)
	if w := a.observe(now); w != max {
		t.Errorf("post-burst window %v, want full %v again", w, max)
	}
	// Clock skew (a non-monotone wall clock) must not produce a negative
	// gap or panic.
	if w := a.observe(now.Add(-time.Hour)); w != max {
		t.Errorf("skewed-clock window %v, want full %v", w, max)
	}
}

// TestAdaptiveWindowLowTrafficP50: sparse partition traffic must not pay
// the batch window. The server is configured with a window big enough to
// dominate the latency; after the controller has seen a few long gaps,
// request latency must drop well below the configured window, while the
// high-traffic regime (TestBatching) keeps batching with an unchanged
// single solver call.
func TestAdaptiveWindowLowTrafficP50(t *testing.T) {
	const window = 40 * time.Millisecond
	_, ts := newTestServer(t, Config{BatchWindow: window})
	req := PartitionRequest{
		Tenant:  "sparse",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
		D:       6000,
	}
	for _, dev := range req.Devices {
		status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Tenant: req.Tenant, Device: dev, Grid: req.Grid})
		if status != http.StatusOK {
			t.Fatalf("prime: status %d: %s", status, body)
		}
	}
	const n = 6
	latencies := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(5 * window) // idle gap: >4·window even after smoothing
		}
		start := time.Now()
		status, body := postJSON(t, ts.URL+"/v1/partition", req)
		latencies = append(latencies, time.Since(start))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	t.Logf("latencies %v, p50 %v (configured window %v)", latencies, p50, window)
	// The first request pays the full window (cold controller = busy);
	// once the gaps register, requests skip it. The median must sit well
	// under the window — the solve itself takes microseconds.
	if p50 >= window/2 {
		t.Errorf("low-traffic p50 %v did not drop below half the %v batch window", p50, window)
	}
	if snap := getStats(t, ts.URL); snap.BatchWindowSkips == 0 {
		t.Error("controller never skipped the window despite idle traffic")
	}
}

// TestJoinGateController pins the join gate's policy by driving it
// directly — no server, no clock, fully deterministic.
func TestJoinGateController(t *testing.T) {
	var g joinGate

	// A fresh gate is open. Empty batches close it only when they come
	// gateEmptyLeaders in a row: a joined batch restarts the count.
	for i := 0; i < gateEmptyLeaders-1; i++ {
		if !g.admit() {
			t.Fatalf("fresh gate turned leader %d away", i)
		}
		g.closed(0)
	}
	if !g.admit() {
		t.Fatal("gate closed before the empty-leader run completed")
	}
	g.join()
	g.closed(1)
	for i := 0; i < gateEmptyLeaders; i++ {
		if !g.admit() {
			t.Fatalf("leader %d after a joined batch turned away; the empty run must restart", i)
		}
		g.closed(0)
	}

	// Closed: leaders skip, except every gateProbeEvery-th, which waits
	// as a probe. An empty probe keeps the gate closed.
	for i := 1; i <= 3*gateProbeEvery; i++ {
		if got, want := g.admit(), i%gateProbeEvery == 0; got != want {
			t.Fatalf("closed gate, leader %d: admit %v, want %v", i, got, want)
		}
		g.closed(0)
	}

	// One joiner reopens the gate at once — even mid-way to the next
	// probe — and closing it again takes a whole new empty run.
	for i := 0; i < gateProbeEvery/2; i++ {
		g.admit()
	}
	g.join()
	for i := 0; i < gateEmptyLeaders; i++ {
		if !g.admit() {
			t.Fatalf("leader %d after a joiner turned away; the gate must reopen", i)
		}
		g.closed(0)
	}
	if g.admit() {
		t.Error("gate did not close again after a fresh empty-leader run")
	}
}

// TestJoinGateBackToBackP50: back-to-back distinct partition requests are
// busy by the inter-arrival rule, so the adaptive window alone would make
// every one of them wait; none of them ever batches. Once the join gate
// has seen the empty-leader run, the median request must skip the window.
// A following burst of identical requests must batch again.
func TestJoinGateBackToBackP50(t *testing.T) {
	const window = 40 * time.Millisecond
	svc, ts := newTestServer(t, Config{BatchWindow: window})
	req := PartitionRequest{
		Tenant:  "serial",
		Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
		Grid:    testGrid,
	}
	for _, dev := range req.Devices {
		status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Tenant: req.Tenant, Device: dev, Grid: req.Grid})
		if status != http.StatusOK {
			t.Fatalf("prime: status %d: %s", status, body)
		}
	}

	const n = 24
	latencies := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		req.D = 6000 + i
		start := time.Now()
		status, body := postJSON(t, ts.URL+"/v1/partition", req)
		latencies = append(latencies, time.Since(start))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
	}
	sh := svc.shards[0]
	sh.window.mu.Lock()
	ewma := sh.window.ewma
	sh.window.mu.Unlock()
	if ewma > 2*window {
		t.Fatalf("inter-arrival ewma %v is past the busy threshold %v: the test must exercise the join gate, not the idle rule", ewma, 2*window)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	t.Logf("latencies %v, p50 %v (configured window %v)", latencies, p50, window)
	if p50 >= window/2 {
		t.Errorf("back-to-back distinct p50 %v did not drop below half the %v batch window", p50, window)
	}
	snap := getStats(t, ts.URL)
	if snap.BatchWindowSkips == 0 {
		t.Error("join gate never skipped the window")
	}
	if snap.BatchJoined != 0 {
		t.Errorf("distinct requests joined %d batches, want 0", snap.BatchJoined)
	}

	// A burst of identical requests must still batch: some join an
	// in-flight solve or a probe's window, and the gate reopens.
	const burst = 32
	req.D = 7000
	bodies := make([][]byte, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/partition", req)
			if status != http.StatusOK {
				t.Errorf("burst request %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < burst; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("burst request %d received different bytes", i)
		}
	}
	after := getStats(t, ts.URL)
	joined, solves := after.BatchJoined-snap.BatchJoined, after.BatchSolves-snap.BatchSolves
	t.Logf("burst of %d: %d joined, %d solves", burst, joined, solves)
	if joined == 0 || solves >= burst {
		t.Errorf("burst of %d identical requests: joined %d, solves %d; batching did not resume", burst, joined, solves)
	}
}
