package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/service/modelstore"
)

// transferGrid is large enough that the default probe budget (a quarter of
// the grid) leaves room for active sampling above the initial probes.
var transferGrid = Grid{Lo: 16, Hi: 60000, N: 40}

// seedDonor fills the store at dir with a full-sweep entry by running one
// measure through a transfer-off server — exactly how a warm fleet's donor
// pool comes to exist.
func seedDonor(t *testing.T, dir string, req MeasureRequest) {
	t.Helper()
	_, ts := newTestServer(t, Config{StoreDir: dir})
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != 200 {
		t.Fatalf("seed donor: status %d: %s", status, body)
	}
}

func TestTransferWarmStartsColdTenant(t *testing.T) {
	dir := t.TempDir()
	donor := MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: transferGrid}
	seedDonor(t, dir, donor)

	svc, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	cold := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "fast", Seed: 1}, Grid: transferGrid}
	status, body := postJSON(t, ts.URL+"/v1/measure", cold)
	if status != 200 {
		t.Fatalf("cold measure: status %d: %s", status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 1 || snap.TransferFallbacks != 0 {
		t.Fatalf("want 1 transfer run and no fallbacks, got runs=%d fallbacks=%d",
			snap.TransferRuns, snap.TransferFallbacks)
	}
	budget := 0
	if sizes := len(gridSizes(t, transferGrid)); sizes > 0 {
		budget = sizes / 4
	}
	if snap.TransferProbes <= 0 || snap.TransferProbes > int64(budget) {
		t.Fatalf("transfer spent %d probes, want 1..%d", snap.TransferProbes, budget)
	}
	// The cold key's store entry carries the transfer provenance, naming
	// the donor, and the store census counts it.
	sh, err := svc.shardFor("cold")
	if err != nil {
		t.Fatal(err)
	}
	sk, ok := sh.storeKey("cold", ModelKey{
		Device: "fast", Seed: 1, Lo: transferGrid.Lo, Hi: transferGrid.Hi, N: transferGrid.N,
	})
	if !ok {
		t.Fatal("store should be configured")
	}
	ent, ok, err := sh.store.Get(sk)
	if err != nil || !ok {
		t.Fatalf("cold entry: ok=%v err=%v", ok, err)
	}
	if ent.Transfer == "" {
		t.Fatal("cold entry should carry transfer provenance")
	}
	for _, want := range []string{"donor=", "scale=", "probes=", "maxdiff="} {
		if !bytes.Contains([]byte(ent.Transfer), []byte(want)) {
			t.Fatalf("provenance %q missing %q", ent.Transfer, want)
		}
	}
	if snap.Store.Entries != 2 || snap.Store.Transferred != 1 {
		t.Fatalf("store census: %+v", snap.Store)
	}
	if snap.Store.Tenants["warm"] != 1 || snap.Store.Tenants["cold"] != 1 {
		t.Fatalf("per-tenant census: %+v", snap.Store.Tenants)
	}
}

// gridSizes resolves a Grid to its concrete sizes through the same core
// helper the shard uses.
func gridSizes(t *testing.T, g Grid) []int {
	t.Helper()
	sizes := logSizesForTest(g)
	if len(sizes) == 0 {
		t.Fatalf("empty grid %+v", g)
	}
	return sizes
}

func TestTransferEmptyStoreFallsBackByteIdentical(t *testing.T) {
	req := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "fast", Seed: 3, Noise: 0.05}, Grid: transferGrid}

	_, plain := newTestServer(t, Config{StoreDir: t.TempDir()})
	wantStatus, wantBody := postJSON(t, plain.URL+"/v1/measure", req)

	svc, ts := newTestServer(t, Config{StoreDir: t.TempDir(), Transfer: true})
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != wantStatus || !bytes.Equal(body, wantBody) {
		t.Fatalf("empty-store fallback diverged from the transfer-off server:\n off: %d %s\n on:  %d %s",
			wantStatus, wantBody, status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 0 || snap.TransferFallbacks != 1 {
		t.Fatalf("want a pure fallback, got runs=%d fallbacks=%d", snap.TransferRuns, snap.TransferFallbacks)
	}
	if snap.TransferProbes != 0 {
		// The empty pool is detected before any probing: a cold fleet pays
		// exactly the full sweep, not probes + sweep.
		t.Fatalf("empty-store fallback should spend no probes, spent %d", snap.TransferProbes)
	}
	// The healed entry is a plain full sweep: no provenance.
	sh, err := svc.shardFor("cold")
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := sh.storeKey("cold", ModelKey{
		Device: "fast", Seed: 3, Noise: 0.05, Lo: transferGrid.Lo, Hi: transferGrid.Hi, N: transferGrid.N,
	})
	if ent, ok, err := sh.store.Get(sk); err != nil || !ok || ent.Transfer != "" {
		t.Fatalf("fallback entry: ok=%v err=%v transfer=%q", ok, err, ent.Transfer)
	}
}

func TestTransferAdversarialDonorFallsBackByteIdentical(t *testing.T) {
	// The donor pool holds only a wrong-shape curve (the gpu preset's
	// cliff); the target is the smooth netlib-blas device. The residual
	// gate must reject the donor and the fallback must serve exactly what
	// a transfer-off server serves — zero wrong bytes.
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "gpu", Seed: 1}, Grid: transferGrid})

	req := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "netlib-blas", Seed: 5, Noise: 0.03}, Grid: transferGrid}
	_, plain := newTestServer(t, Config{StoreDir: t.TempDir()})
	wantStatus, wantBody := postJSON(t, plain.URL+"/v1/measure", req)

	_, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	status, body := postJSON(t, ts.URL+"/v1/measure", req)
	if status != wantStatus || !bytes.Equal(body, wantBody) {
		t.Fatalf("adversarial-donor fallback diverged from the transfer-off server:\n off: %d %s\n on:  %d %s",
			wantStatus, wantBody, status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 0 || snap.TransferFallbacks != 1 {
		t.Fatalf("want a gate rejection, got runs=%d fallbacks=%d", snap.TransferRuns, snap.TransferFallbacks)
	}
	if snap.TransferProbes == 0 {
		t.Fatal("gate rejection happens after probing; want probes > 0")
	}
}

func TestTransferSingleDonorStore(t *testing.T) {
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "slow", Seed: 2}, Grid: transferGrid})

	_, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	status, body := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "slow", Seed: 2}, Grid: transferGrid})
	if status != 200 {
		t.Fatalf("cold measure: status %d: %s", status, body)
	}
	snap := getStats(t, ts.URL)
	if snap.TransferRuns != 1 {
		t.Fatalf("single matching donor should transfer, got runs=%d fallbacks=%d",
			snap.TransferRuns, snap.TransferFallbacks)
	}
}

func TestTransferColdStartStormSingleFlight(t *testing.T) {
	// Two servers share one store directory (Open dedupes the handle, so
	// modelstore's single-flight spans them) and a storm of concurrent
	// requests hits the same cold key on both. Exactly one transfer
	// acquisition may run; every response must be byte-identical.
	dir := t.TempDir()
	seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: "fast", Seed: 4}, Grid: transferGrid})

	svcA, tsA := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	svcB, tsB := newTestServer(t, Config{StoreDir: dir, Transfer: true})

	req := MeasureRequest{Tenant: "cold", Device: DeviceSpec{Preset: "fast", Seed: 4}, Grid: transferGrid}
	const perServer = 4
	type result struct {
		status int
		body   []byte
	}
	results := make([]result, 2*perServer)
	var wg sync.WaitGroup
	for i := 0; i < perServer; i++ {
		for j, url := range []string{tsA.URL, tsB.URL} {
			wg.Add(1)
			go func(slot int, url string) {
				defer wg.Done()
				status, body := postJSON(t, url+"/v1/measure", req)
				results[slot] = result{status, body}
			}(i*2+j, url)
		}
	}
	wg.Wait()
	for i, r := range results {
		if r.status != 200 {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d diverged:\n%s\nvs\n%s", i, r.body, results[0].body)
		}
	}
	runs := int64(0)
	for _, ts := range []string{tsA.URL, tsB.URL} {
		runs += getStats(t, ts).TransferRuns
	}
	if runs != 1 {
		t.Fatalf("storm must transfer exactly once across the fleet, got %d", runs)
	}
	_, _ = svcA, svcB
}

func TestTransferStormLeavesDonorPointsUnchanged(t *testing.T) {
	// The store's index hands every fill the same donor Points slices.
	// A storm of concurrent transfer fills must leave them exactly as the
	// index decoded them: same backing arrays, same bits, same as disk.
	dir := t.TempDir()
	for i, preset := range []string{"fast", "slow", "gpu"} {
		seedDonor(t, dir, MeasureRequest{Tenant: "warm", Device: DeviceSpec{Preset: preset, Seed: int64(i + 1)}, Grid: transferGrid})
	}
	// Age the donor files so the index trusts their stamps and keeps
	// serving the decoded curves it holds now.
	names, err := filepath.Glob(filepath.Join(dir, "*.points"))
	if err != nil || len(names) != 3 {
		t.Fatalf("seeded store: %v %v", names, err)
	}
	old := time.Now().Add(-time.Hour)
	for _, name := range names {
		if err := os.Chtimes(name, old, old); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t, Config{StoreDir: dir, Transfer: true})
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.DonorPool(modelstore.Key{})
	if err != nil || len(before) != 3 {
		t.Fatalf("donor pool: %d donors, err %v", len(before), err)
	}
	want := make([][]core.Point, len(before))
	for i, d := range before {
		want[i] = append([]core.Point(nil), d.Points...)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, preset := range []string{"fast", "slow"} {
			wg.Add(1)
			go func(tenant, preset string) {
				defer wg.Done()
				req := MeasureRequest{Tenant: tenant, Device: DeviceSpec{Preset: preset, Seed: 9}, Grid: transferGrid}
				if status, body := postJSON(t, ts.URL+"/v1/measure", req); status != 200 {
					t.Errorf("storm request: status %d: %s", status, body)
				}
			}(fmt.Sprintf("cold-%d", i), preset)
		}
	}
	wg.Wait()
	if snap := getStats(t, ts.URL); snap.TransferRuns == 0 {
		t.Fatalf("the storm should transfer: runs=%d fallbacks=%d", snap.TransferRuns, snap.TransferFallbacks)
	}

	after, err := store.DonorPool(modelstore.Key{})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string][]core.Point, len(after))
	for _, d := range after {
		byID[d.ID] = d.Points
	}
	for i, d := range before {
		got := byID[d.ID]
		if len(got) == 0 || &got[0] != &d.Points[0] {
			t.Fatalf("donor %s: the index should still share the curve it decoded before the storm", d.ID)
		}
		if !reflect.DeepEqual(d.Points, want[i]) {
			t.Fatalf("donor %s: points modified by the storm", d.ID)
		}
	}
	entries, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if d, ok := byID[modelstore.DonorID(e.Key)]; ok && !reflect.DeepEqual(d, e.Points) {
			t.Fatalf("donor %s: index curve differs from disk", modelstore.DonorID(e.Key))
		}
	}
}

func TestNewRejectsTransferWithoutStore(t *testing.T) {
	if _, err := New(Config{Transfer: true}); err == nil {
		t.Fatal("Transfer without StoreDir must be rejected")
	}
	for _, cfg := range []Config{
		{Transfer: true, StoreDir: t.TempDir(), TransferProbes: -1},
		{Transfer: true, StoreDir: t.TempDir(), TransferBudget: -1},
		{Transfer: true, StoreDir: t.TempDir(), TransferTol: -0.1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v must be rejected", cfg)
		}
	}
}

// logSizesForTest mirrors the shard's grid resolution.
func logSizesForTest(g Grid) []int {
	return core.LogSizes(g.Lo, g.Hi, g.N)
}
