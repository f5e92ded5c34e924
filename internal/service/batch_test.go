package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fupermod/internal/core"
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

// postBody posts req and returns the status and body, or the transport
// error (a handler panic surfaces as a closed connection), without failing
// the test from a helper goroutine.
func postBody(url string, req any) (int, []byte, error) {
	resp, err := postRaw(url, req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// TestBatchKeyTenantCollision: tenant names are free text, so a batch key
// that joined fields with a separator let tenant "x|<key of x's first
// device>" with one device build the same key as tenant x with two. Two
// such requests in one batch window must still each get their own solo
// answer, whichever leads. The leader's solve is held in flight by
// plugging the single pool worker, so the second request provably meets
// it.
func TestBatchKeyTenantCollision(t *testing.T) {
	fast, slow := DeviceSpec{Preset: "fast", Seed: 1}, DeviceSpec{Preset: "slow", Seed: 2}
	const D = 6000
	// pair builds the two requests for one endpoint: tenant x over both
	// devices, and the tenant whose name spells x's first key over slow.
	type pair struct {
		path string
		grid Grid // the grid the endpoint's model keys carry
		make func(tenant string, devs []DeviceSpec) any
	}
	pairs := []pair{
		{"/v1/partition", testGrid, func(tenant string, devs []DeviceSpec) any {
			return PartitionRequest{Tenant: tenant, Devices: devs, Grid: testGrid, D: D}
		}},
		{"/v1/dynpart", Grid{Lo: 1, Hi: D, N: 1}, func(tenant string, devs []DeviceSpec) any {
			return DynpartRequest{Tenant: tenant, Devices: devs, D: D}
		}},
	}
	for _, p := range pairs {
		key, err := keyOf(fast, p.grid, "")
		if err != nil {
			t.Fatal(err)
		}
		reqs := []any{
			p.make("x", []DeviceSpec{fast, slow}),
			p.make("x|"+key.String(), []DeviceSpec{slow}),
		}
		solo := make([][]byte, len(reqs))
		for i, req := range reqs {
			_, ts := newTestServer(t, Config{})
			status, body := postJSON(t, ts.URL+p.path, req)
			if status != http.StatusOK {
				t.Fatalf("%s solo %d: status %d: %s", p.path, i, status, body)
			}
			solo[i] = body
		}
		for leader := range reqs {
			t.Run(fmt.Sprintf("%s/leader%d", strings.TrimPrefix(p.path, "/v1/"), leader), func(t *testing.T) {
				svc, ts := newTestServer(t, Config{Workers: 1, BatchWindow: 40 * time.Millisecond})
				// Prime both tenants' models through /v1/measure: it never
				// batches, so the join gate stays open.
				for _, prime := range []struct {
					tenant string
					dev    DeviceSpec
				}{{"x", fast}, {"x", slow}, {"x|" + key.String(), slow}} {
					status, body := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Tenant: prime.tenant, Device: prime.dev, Grid: testGrid})
					if status != http.StatusOK {
						t.Fatalf("prime: status %d: %s", status, body)
					}
				}
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

				sh := svc.shards[0]
				batches := func() int {
					sh.batchMu.Lock()
					defer sh.batchMu.Unlock()
					return len(sh.batches)
				}
				type result struct {
					status int
					body   []byte
					err    error
				}
				results := make([]result, len(reqs))
				var wg sync.WaitGroup
				send := func(i int) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						status, body, err := postBody(ts.URL+p.path, reqs[i])
						results[i] = result{status, body, err}
					}()
				}
				send(leader)
				waitFor(t, func() bool { return batches() == 1 }, "the leader to register its batch")
				send(1 - leader)
				waitFor(t, func() bool { return batches() == 2 || sh.stats.batchJoined.Load() == 1 },
					"the second request to lead or join")
				unplug.Do(func() { close(unblock) })
				wg.Wait()
				for i, res := range results {
					if res.err != nil {
						t.Errorf("request %d: %v", i, res.err)
						continue
					}
					if res.status != http.StatusOK || !bytes.Equal(res.body, solo[i]) {
						t.Errorf("request %d: status %d, body\n%s\nwant its solo answer\n%s", i, res.status, res.body, solo[i])
					}
				}
			})
		}
	}
}

// TestJobKeyDistinguishesRequests: partition jobs that differ only in the
// comm tag, the tenant, the device order or the algorithm never share a
// batch key, nor does a tenant whose name spells another tenant's first
// device key; equal jobs always do.
func TestJobKeyDistinguishesRequests(t *testing.T) {
	fast := ModelKey{Device: "fast", Seed: 1, Lo: 16, Hi: 2000, N: 8, Model: "fpm-piecewise"}
	slow := ModelKey{Device: "slow", Seed: 2, Lo: 16, Hi: 2000, N: 8, Model: "fpm-piecewise"}
	base := partitionJob{Tenant: "x", Keys: []ModelKey{fast, slow}, Algorithm: "geometric", D: 100}
	variants := map[string]func(*partitionJob){
		"comm":         func(j *partitionJob) { j.Comm = "loggp/p2p/gigabit/2/512" },
		"other comm":   func(j *partitionJob) { j.Comm = "loggp/p2p/gigabit/2/1024" },
		"tenant":       func(j *partitionJob) { j.Tenant = "y" },
		"device order": func(j *partitionJob) { j.Keys = []ModelKey{slow, fast} },
		"algorithm":    func(j *partitionJob) { j.Algorithm = "numerical" },
		"spelled tenant": func(j *partitionJob) {
			j.Tenant, j.Keys = "x|"+fast.String(), []ModelKey{slow}
		},
	}
	key := func(j partitionJob) string {
		k, err := JobKey("partition", &j)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	seen := map[string]string{key(base): "base"}
	for name, mutate := range variants {
		j := base
		mutate(&j)
		k := key(j)
		if other, dup := seen[k]; dup {
			t.Errorf("%s shares a batch key with %s: %s", name, other, k)
		}
		seen[k] = name
	}
	same := base
	same.Keys = append([]ModelKey(nil), base.Keys...)
	same.models = make([]core.Model, 2) // unexported: not part of the key
	if key(same) != key(base) {
		t.Errorf("equal jobs got different keys:\n%s\n%s", key(same), key(base))
	}
}
