package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fupermod/internal/model"
)

// fuzzKey maps one opcode byte to a small key space: collisions between
// operations are the point — the fuzzer interleaves fills, evictions,
// spills and truncations over the same few keys.
func fuzzKey(b byte) ModelKey {
	devices := []string{"fast", "slow"}
	kinds := []string{model.KindPiecewise, model.KindConstant}
	return ModelKey{
		Device: devices[int(b>>1)%len(devices)],
		Seed:   int64(b >> 4 & 3),
		Noise:  0,
		Lo:     16, Hi: 500, N: 4,
		Model: kinds[int(b)%len(kinds)],
	}
}

// FuzzCacheStore drives random interleavings of getModel, cache eviction
// pressure, store-file truncation and store reload over a tiny key space,
// under the race detector in CI. Invariants:
//
//   - no operation panics, whatever the interleaving;
//   - concurrent getModel calls for one key agree exactly (single-flight,
//     and deterministic fills even after eviction or a store round trip);
//   - a torn store file is never served: it surfaces as a clean re-sweep
//     whose points equal the original sweep's, byte for byte.
func FuzzCacheStore(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x10, 0x41, 0x10})       // fill, truncate, refill
	f.Add([]byte{0x00, 0x21, 0x42, 0x63}) // distinct keys: eviction pressure
	f.Add([]byte{0x03, 0x03, 0x13, 0x13}) // repeated keys: single-flight
	f.Add([]byte{0x10, 0x44, 0x10, 0x44, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 24 {
			data = data[:24]
		}
		dir := t.TempDir()
		svc, err := New(Config{Workers: 2, CacheSize: 2, BatchWindow: -1, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()

		// canonical holds the agreed sweep per key, fixed by whichever
		// fill completes first; every later fill must reproduce it.
		var canonMu sync.Mutex
		canonical := map[ModelKey][]PointPayload{}
		check := func(key ModelKey) {
			_, pts, err := svc.shards[0].getModel("fuzz", key)
			if err != nil {
				t.Errorf("getModel(%v): %v", key, err)
				return
			}
			got := pointPayloads(pts)
			canonMu.Lock()
			defer canonMu.Unlock()
			want, ok := canonical[key]
			if !ok {
				canonical[key] = got
				return
			}
			if len(got) != len(want) {
				t.Errorf("key %v: %d points, want %d", key, len(got), len(want))
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("key %v point %d: %+v != %+v", key, i, got[i], want[i])
				}
			}
		}

		var wg sync.WaitGroup
		for _, op := range data {
			switch op & 0x03 {
			case 0, 1: // concurrent fills of the same key (single-flight)
				key := fuzzKey(op)
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						check(key)
					}()
				}
			case 2: // truncate one store file mid-flight (torn write)
				files, _ := filepath.Glob(filepath.Join(dir, "*.points"))
				if len(files) > 0 {
					path := files[int(op>>2)%len(files)]
					if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
						cut := int(op>>2) % len(data)
						// Ignore write errors: racing a concurrent heal is
						// part of the interleavings under test.
						_ = os.WriteFile(path, data[:cut], 0o644)
					}
				}
			case 3: // reload: an independent server over the same store
				wg.Wait() // writers quiesce so the reload sees settled files
				svc2, err := New(Config{Workers: 1, CacheSize: 2, BatchWindow: -1, StoreDir: dir})
				if err != nil {
					t.Fatalf("reload: %v", err)
				}
				_, pts, err := svc2.shards[0].getModel("fuzz", fuzzKey(op))
				if err != nil || len(pts) == 0 {
					t.Errorf("reloaded getModel: %d points, err %v", len(pts), err)
				}
				svc2.Close()
			}
		}
		wg.Wait()

		// Every stored entry is either intact or detected-corrupt — Load
		// must never hand back partial data (count mismatch would fail the
		// trailer check and land in corrupt).
		entries, _, err := svc.store.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if len(e.Points) == 0 {
				t.Errorf("store served an empty entry for %v", e.Key)
			}
		}
	})
}

// fuzzProbe is the well-formed partition request FuzzHandler sends after
// every fuzzed one; its devices and grid are the seeds' own, so fuzzed
// requests can reach the cache entries it reads.
var fuzzProbe = PartitionRequest{
	Tenant:  "fuzz",
	Devices: []DeviceSpec{{Preset: "fast", Seed: 1}, {Preset: "slow", Seed: 2}},
	Grid:    Grid{Lo: 16, Hi: 500, N: 4},
	D:       1000,
}

// serveOnce sends one request straight to a handler.
func serveOnce(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// FuzzHandler drives Server.Handler() with arbitrary bodies on every POST
// endpoint (which picks the op, modulo the table). Invariants:
//
//   - the answer is a 2xx or a 4xx: hostile input is the client's error,
//     never a 5xx or a panic (batching is off, so no recover hides one);
//   - nothing the request leaves behind changes a later well-formed
//     request: fuzzProbe answers byte-identically to a fresh server.
func FuzzHandler(f *testing.F) {
	dev := fuzzProbe.Devices[0]
	seeds := map[string]any{
		"/v1/measure":   MeasureRequest{Tenant: "fuzz", Device: dev, Grid: fuzzProbe.Grid},
		"/v1/model":     ModelRequest{Tenant: "fuzz", Device: dev, Grid: fuzzProbe.Grid, Model: model.KindAkima},
		"/v1/partition": fuzzProbe,
		"/v1/dynpart":   DynpartRequest{Tenant: "fuzz", Devices: fuzzProbe.Devices, D: 1000},
		"/v1/balance":   BalanceRequest{Tenant: "fuzz", N: 2, D: 100, Iterations: [][]float64{{1, 2}, {1.5, 1.2}}},
		"/v1/rebalance": RebalanceRequest{Tenant: "fuzz", N: 2, D: 100, Units: []int{50, 50},
			Iterations: [][]float64{{1, 2}}, Rounds: 10, UnitBytes: 64, Comm: &CommSpec{Net: "gigabit"}},
		"/v1/matpart": MatpartRequest{Tenant: "fuzz", Areas: []float64{3, 1, 0}, Grid: 8},
		"/v1/machine": MachineRequest{Tenant: "fuzz", Machine: "node n0\n  cpu c0 peak=2e9\n"},
	}
	newServer := func(t testing.TB) *Server {
		svc, err := New(Config{Workers: 2, BatchWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	for i, o := range ops {
		body, err := json.Marshal(seeds[o.path()])
		if err != nil {
			f.Fatal(err)
		}
		svc := newServer(f)
		if rec := serveOnce(svc.Handler(), http.MethodPost, o.path(), body); rec.Code != http.StatusOK {
			f.Fatalf("seed %s: status %d: %s", o.path(), rec.Code, rec.Body)
		}
		svc.Close()
		f.Add(uint8(i), body)
	}
	probe, err := json.Marshal(fuzzProbe)
	if err != nil {
		f.Fatal(err)
	}
	fresh := newServer(f)
	want := serveOnce(fresh.Handler(), http.MethodPost, "/v1/partition", probe)
	fresh.Close()
	if want.Code != http.StatusOK {
		f.Fatalf("probe on a fresh server: status %d: %s", want.Code, want.Body)
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		svc := newServer(t)
		defer svc.Close()
		h := svc.Handler()
		path := ops[int(which)%len(ops)].path()
		if rec := serveOnce(h, http.MethodPost, path, body); rec.Code < 200 || rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		rec := serveOnce(h, http.MethodPost, "/v1/partition", probe)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("after %s %q the probe answers %d:\n%s\nnot the fresh server's\n%s", path, body, rec.Code, rec.Body, want.Body)
		}
	})
}
