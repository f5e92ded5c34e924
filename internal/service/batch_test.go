package service

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fupermod/internal/pool"
)

// waitFor polls cond until it holds (or the deadline expires).
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchLeaderPanicWakesJoiners: a batch leader whose run panics must
// publish the failure instead of leaving its followers waiting forever,
// and must not poison the key — the next call runs fresh.
func TestBatchLeaderPanicWakesJoiners(t *testing.T) {
	svc, err := New(Config{BatchWindow: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sh := svc.shards[0]
	const key = "test|panic"

	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		sh.batched(key, func() (any, error) {
			<-release
			panic("solver bug")
		})
	}()
	waitFor(t, func() bool {
		sh.batchMu.Lock()
		defer sh.batchMu.Unlock()
		_, ok := sh.batches[key]
		return ok
	}, "the leader to register its batch")

	joinerErr := make(chan error, 1)
	go func() {
		_, err := sh.batched(key, func() (any, error) {
			t.Error("joiner ran the operation itself")
			return nil, nil
		})
		joinerErr <- err
	}()
	waitFor(t, func() bool { return sh.stats.batchJoined.Load() == 1 }, "the joiner to join")
	close(release)

	select {
	case err := <-joinerErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("joiner error %v, want the leader's panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner never woke after the leader panicked")
	}
	if r := <-leaderPanic; r != nil {
		t.Errorf("panic escaped the batcher: %v", r)
	}

	ran := 0
	v, err := sh.batched(key, func() (any, error) {
		ran++
		return "fresh", nil
	})
	if err != nil || v != "fresh" || ran != 1 {
		t.Errorf("call after the panic: value %v, error %v, runs %d; want a fresh run", v, err, ran)
	}
}

// TestSkippingLeaderCoalescesInFlight: a leader turned away by a closed
// join gate skips the window but stays registered for its whole solve, so
// identical requests that arrive mid-solve join it at no added wait and
// receive byte-identical answers from one solver call. The solve is held
// in flight deterministically by plugging the worker pool.
func TestSkippingLeaderCoalescesInFlight(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, BatchWindow: 40 * time.Millisecond})
	req := PartitionRequest{
		Tenant:  "inflight",
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
	sh := svc.shards[0]
	sh.batchMu.Lock()
	sh.gate.empty = gateEmptyLeaders
	sh.batchMu.Unlock()

	// Plug the single pool worker; registered after newTestServer so it
	// runs first on cleanup and a failing test cannot wedge the drain.
	unblock := make(chan struct{})
	var unplug sync.Once
	t.Cleanup(func() { unplug.Do(func() { close(unblock) }) })
	blocked := make(chan struct{})
	go pool.Do(context.Background(), svc.pool, func(context.Context) error {
		close(blocked)
		<-unblock
		return nil
	})
	<-blocked

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	post := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body := postJSON(t, ts.URL+"/v1/partition", req)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, body)
				return
			}
			bodies[i] = body
		}()
	}
	post(0)
	waitStats(t, ts.URL, func(s Snapshot) bool { return s.BatchWindowSkips == 1 }, "the leader to skip its window")
	for i := 1; i < n; i++ {
		post(i)
	}
	waitStats(t, ts.URL, func(s Snapshot) bool { return s.BatchJoined == n-1 }, "every follower to join the in-flight solve")
	unplug.Do(func() { close(unblock) })
	wg.Wait()

	want := directPartitionBytes(t, req)
	for i, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Errorf("request %d diverges from the direct library path:\n%s\n%s", i, body, want)
		}
	}
	snap := getStats(t, ts.URL)
	if snap.BatchSolves != 1 {
		t.Errorf("solver calls = %d, want 1 for %d coalesced requests", snap.BatchSolves, n)
	}
	if snap.BatchWindowSkips != 1 {
		t.Errorf("window skips = %d, want 1: followers must join, not lead", snap.BatchWindowSkips)
	}
}
