package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/kernels"
	"fupermod/internal/matpart"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
	"fupermod/internal/service"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
)

// replayer answers requests through the layers' public functions, doing
// what the server does for them: it is the correctness oracle of every run
// and, given a tracer, the source of the per-layer spans. It keeps its own
// key → model map, so a replayed request does only the work the server's
// caches would leave.
type replayer struct {
	// transfer mirrors a transfer-enabled server. Its models depend on
	// which donors reached the store first, so its answers are checked for
	// invariants; all others must equal the replay byte for byte.
	transfer bool
	// mirror, when set, receives the store traffic the server's fills make
	// (spills, donor-pool scans), so traced runs time those layers too.
	mirror *modelstore.Store

	mu     sync.Mutex
	models map[tenantKey]core.Model
	points map[modelstore.Key][]core.Point
}

type tenantKey struct {
	tenant string
	key    service.ModelKey
}

var storePrec = modelstore.EncodePrecision(service.DefaultSweepPrecision)

func storeKey(tenant string, dev service.DeviceSpec) modelstore.Key {
	return modelstore.Key{
		Tenant: tenant, Device: dev.Preset, Seed: dev.Seed, Noise: dev.Noise,
		Lo: grid.Lo, Hi: grid.Hi, N: grid.N, Prec: storePrec,
	}
}

func newReplayer(transfer bool, mirror *modelstore.Store) *replayer {
	return &replayer{
		transfer: transfer,
		mirror:   mirror,
		models:   make(map[tenantKey]core.Model),
		points:   make(map[modelstore.Key][]core.Point),
	}
}

// preload mirrors the server's start: load the store and fit a piecewise
// model to every entry.
func (r *replayer) preload(t *tracer, st *modelstore.Store) error {
	h := t.begin("modelstore.Load", "")
	entries, corrupt, err := st.Load()
	t.end(h)
	if err != nil {
		return err
	}
	if len(corrupt) > 0 {
		return fmt.Errorf("store holds %d corrupt entries", len(corrupt))
	}
	for _, e := range entries {
		m, err := fit(t, model.KindPiecewise, e.Points)
		if err != nil {
			return err
		}
		k := e.Key
		r.points[k] = e.Points
		r.models[tenantKey{k.Tenant, service.ModelKey{
			Device: k.Device, Seed: k.Seed, Noise: k.Noise, Lo: k.Lo, Hi: k.Hi, N: k.N,
			Model: model.KindPiecewise,
		}}] = m
	}
	return nil
}

// check replays rq and reports whether the server's response body agrees.
func (r *replayer) check(t *tracer, rq Request, body []byte) error {
	if r.transfer && r.mirror == nil {
		// Nothing to compare exactly and no store traffic to time: check
		// the invariant alone instead of re-measuring every key.
		var req service.PartitionRequest
		if err := json.Unmarshal(rq.Body, &req); err != nil {
			return err
		}
		return unitsSumTo(body, req.D)
	}
	switch rq.Endpoint {
	case "/v1/partition":
		return r.partition(t, rq.Body, body)
	case "/v1/dynpart":
		return r.dynpart(t, rq.Body, body)
	case "/v1/balance":
		return r.balance(t, rq.Body, body)
	case "/v1/matpart":
		return r.matpart(t, rq.Body, body)
	}
	return fmt.Errorf("no replay for %s", rq.Endpoint)
}

func decodeReq(t *tracer, body []byte, v any) error {
	h := t.begin("service.DecodeJSON", "")
	defer t.end(h)
	return service.DecodeJSON(bytes.NewReader(body), v)
}

// encodeMatches encodes the replay's response as the server does and
// compares it with the bytes the server sent.
func encodeMatches(t *tracer, v any, got []byte) error {
	want, err := encode(t, v)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("response differs from the library result:\n got %s\nwant %s", got, want)
	}
	return nil
}

func encode(t *tracer, v any) ([]byte, error) {
	var buf bytes.Buffer
	h := t.begin("service.EncodeJSON", "")
	defer t.end(h)
	err := service.EncodeJSON(&buf, v)
	return buf.Bytes(), err
}

func (r *replayer) partition(t *tracer, reqBody, got []byte) error {
	var req service.PartitionRequest
	if err := decodeReq(t, reqBody, &req); err != nil {
		return err
	}
	kind := req.Model
	if kind == "" {
		kind = model.KindPiecewise
	}
	tenant := service.TenantOf(req.Tenant)
	models := make([]core.Model, len(req.Devices))
	for i, dev := range req.Devices {
		m, err := r.model(t, tenant, dev, kind)
		if err != nil {
			return fmt.Errorf("device %d (%s): %w", i, dev.Preset, err)
		}
		models[i] = m
	}
	p, err := partition.ByName(req.Algorithm)
	if err != nil {
		return err
	}
	h := t.begin("partition.Partition", req.Algorithm)
	dist, err := p.Partition(models, req.D)
	t.end(h)
	if err != nil {
		return err
	}
	resp := service.PartitionResponse{
		Algorithm: req.Algorithm, Model: kind, D: req.D,
		Parts: make([]service.PartPayload, len(dist.Parts)), MakespanS: dist.MaxTime(),
		Imbalance: dist.Imbalance(),
	}
	for i, part := range dist.Parts {
		resp.Parts[i] = service.PartPayload{Device: req.Devices[i].Preset, Units: part.D, TimeS: part.Time}
	}
	if math.IsInf(resp.Imbalance, 0) || math.IsNaN(resp.Imbalance) {
		resp.Imbalance = -1
	}
	if r.transfer {
		if _, err := encode(t, resp); err != nil {
			return err
		}
		return unitsSumTo(got, req.D)
	}
	return encodeMatches(t, resp, got)
}

// unitsSumTo checks the invariant every partition response keeps whatever
// models it was computed from: the parts hold exactly D units.
func unitsSumTo(body []byte, D int) error {
	var resp service.PartitionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	sum := 0
	for _, p := range resp.Parts {
		if p.Units < 0 {
			return fmt.Errorf("negative share %d", p.Units)
		}
		sum += p.Units
	}
	if sum != D {
		return fmt.Errorf("shares sum to %d, want D = %d", sum, D)
	}
	return nil
}

// model returns the tenant's fitted model for dev, acquiring and fitting
// it on first use as the server's fill does.
func (r *replayer) model(t *tracer, tenant string, dev service.DeviceSpec, kind string) (core.Model, error) {
	tk := tenantKey{tenant, service.ModelKey{
		Device: dev.Preset, Seed: dev.Seed, Noise: dev.Noise,
		Lo: grid.Lo, Hi: grid.Hi, N: grid.N, Model: kind,
	}}
	sk := storeKey(tenant, dev)
	r.mu.Lock()
	m, ok := r.models[tk]
	pts, measured := r.points[sk]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	if !measured {
		var err error
		if pts, err = r.acquire(t, sk, dev); err != nil {
			return nil, err
		}
	}
	m, err := fit(t, kind, pts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.models[tk] = m
	r.points[sk] = pts
	r.mu.Unlock()
	return m, nil
}

// acquire measures a never-seen key: a serial core.Sweep — never the
// parallel sweeps, whose noise draws depend on scheduling — or, with
// transfer on, a warm start from the mirror's donor pool. Traced runs
// spill the result to the mirror as the server spills to its store.
func (r *replayer) acquire(t *tracer, sk modelstore.Key, dev service.DeviceSpec) ([]core.Point, error) {
	sizes := core.LogSizes(grid.Lo, grid.Hi, grid.N)
	var prov string
	pts, err := func() ([]core.Point, error) {
		if !r.transfer || r.mirror == nil {
			return sweep(t, dev, sizes)
		}
		h := t.begin("modelstore.DonorPool", "")
		donors, err := r.mirror.DonorPool(sk)
		t.end(h)
		if err != nil || len(donors) == 0 {
			return sweep(t, dev, sizes)
		}
		k, err := virtualKernel(dev)
		if err != nil {
			return nil, err
		}
		prober := func(d int) (core.Point, error) { return core.Benchmark(k, d, service.DefaultSweepPrecision) }
		cfg := transfer.Config{Probes: service.DefaultTransferProbes, Tol: service.DefaultTransferTol}
		h = t.begin("transfer.Acquire", "")
		res, err := transfer.Acquire(sizes, prober, transfer.Pool(donors, 0), cfg)
		t.end(h)
		if err != nil {
			return nil, err
		}
		if res.Fallback != "" {
			return sweep(t, dev, sizes)
		}
		prov = fmt.Sprintf("donor=%s probes=%d/%d", res.Donor, res.Measured, len(sizes))
		return res.Points, nil
	}()
	if err != nil {
		return nil, err
	}
	if r.mirror != nil {
		h := t.begin("modelstore.Put", "")
		err := r.mirror.PutTransfer(sk, dev.Preset, pts, prov)
		t.end(h)
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// noiseConfig is the service's mapping from a request's noise level to the
// platform's noise model.
func noiseConfig(rel float64) platform.NoiseConfig {
	if rel <= 0 {
		return platform.Quiet
	}
	return platform.NoiseConfig{Rel: rel, OutlierP: 0.02, OutlierScale: 0.5}
}

// virtualKernel is a fresh seeded kernel for dev, as the server builds one
// per fill.
func virtualKernel(dev service.DeviceSpec) (core.Kernel, error) {
	d, err := platform.Preset(dev.Preset)
	if err != nil {
		return nil, err
	}
	return kernels.NewVirtual(d.Name(), platform.NewMeter(d, noiseConfig(dev.Noise), dev.Seed), service.GEMMBlockFlops)
}

func sweep(t *tracer, dev service.DeviceSpec, sizes []int) ([]core.Point, error) {
	k, err := virtualKernel(dev)
	if err != nil {
		return nil, err
	}
	h := t.begin("core.Sweep", "")
	defer t.end(h)
	return core.Sweep(k, sizes, service.DefaultSweepPrecision)
}

func fit(t *tracer, kind string, pts []core.Point) (core.Model, error) {
	h := t.begin("model.fit", kind)
	defer t.end(h)
	m, err := model.New(kind)
	if err != nil {
		return nil, err
	}
	if err := core.UpdateAll(m, pts); err != nil {
		return nil, err
	}
	return m, nil
}

func newModelFunc(kind string) func() core.Model {
	return func() core.Model { m, _ := model.New(kind); return m }
}

func (r *replayer) dynpart(t *tracer, reqBody, got []byte) error {
	var req service.DynpartRequest
	if err := decodeReq(t, reqBody, &req); err != nil {
		return err
	}
	kset := make([]core.Kernel, len(req.Devices))
	for i, dev := range req.Devices {
		k, err := virtualKernel(dev)
		if err != nil {
			return err
		}
		kset[i] = k
	}
	cfg := dynamic.Config{
		Algorithm: partition.Geometric(),
		NewModel:  newModelFunc(model.KindPiecewise),
		Precision: service.DefaultSweepPrecision,
		Eps:       service.DefaultDynEps,
	}
	h := t.begin("dynamic.PartitionDynamic", "")
	res, err := dynamic.PartitionDynamic(kset, req.D, cfg)
	t.end(h)
	if err != nil {
		return err
	}
	resp := service.DynpartResponse{
		Algorithm: "geometric", Model: model.KindPiecewise, D: req.D,
		Parts: make([]service.PartPayload, len(res.Dist.Parts)), MakespanS: res.Dist.MaxTime(),
		Steps: make([]service.DynpartStep, len(res.Steps)), Converged: res.Converged,
		BenchmarkS: res.BenchmarkSeconds,
	}
	for i, p := range res.Dist.Parts {
		resp.Parts[i] = service.PartPayload{Device: req.Devices[i].Preset, Units: p.D, TimeS: p.Time}
	}
	for i, st := range res.Steps {
		units := make([]int, len(st.Dist.Parts))
		for j, p := range st.Dist.Parts {
			units[j] = p.D
		}
		resp.Steps[i] = service.DynpartStep{Units: units, Change: st.Change, ModelPoints: st.ModelPoints}
	}
	return encodeMatches(t, resp, got)
}

func (r *replayer) balance(t *tracer, reqBody, got []byte) error {
	var req service.BalanceRequest
	if err := decodeReq(t, reqBody, &req); err != nil {
		return err
	}
	cfg := dynamic.Config{Algorithm: partition.Geometric(), NewModel: newModelFunc(model.KindPiecewise)}
	resp := service.BalanceResponse{Algorithm: "geometric", Model: model.KindPiecewise, D: req.D, N: req.N}
	h := t.begin("dynamic.Balancer", "")
	b, err := dynamic.NewBalancer(cfg, req.D, req.N, req.MinGain)
	if err != nil {
		t.end(h)
		return err
	}
	for _, times := range req.Iterations {
		changed, err := b.Observe(times)
		if err != nil {
			t.end(h)
			return err
		}
		units := make([]int, req.N)
		for j, p := range b.Dist().Parts {
			units[j] = p.D
		}
		resp.Iterations = append(resp.Iterations, service.BalanceIteration{Units: units, Changed: changed})
	}
	t.end(h)
	resp.Units = resp.Iterations[len(resp.Iterations)-1].Units
	return encodeMatches(t, resp, got)
}

// matpart checks the arrangement field by field — the column grouping is
// derived from these rectangles — and that the blocks tile the grid.
func (r *replayer) matpart(t *tracer, reqBody, got []byte) error {
	var req service.MatpartRequest
	if err := decodeReq(t, reqBody, &req); err != nil {
		return err
	}
	h := t.begin("matpart.Partition", "")
	rects, perim, err := matpart.Partition(req.Areas)
	t.end(h)
	if err != nil {
		return err
	}
	h = t.begin("matpart.PartitionGrid", "")
	blocks, err := matpart.PartitionGrid(req.Areas, req.Grid)
	t.end(h)
	if err != nil {
		return err
	}
	var resp service.MatpartResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		return err
	}
	if resp.HalfPerimeter != perim || len(resp.Rects) != len(rects) || len(resp.Blocks) != len(blocks) || resp.Grid != req.Grid {
		return fmt.Errorf("matpart response differs from the library result")
	}
	for i, rc := range rects {
		if resp.Rects[i] != (service.MatpartRect{Proc: rc.Proc, X: rc.X, Y: rc.Y, W: rc.W, H: rc.H}) {
			return fmt.Errorf("matpart rect %d differs from the library result", i)
		}
	}
	served := make([]matpart.BlockRect, len(resp.Blocks))
	for i, b := range resp.Blocks {
		served[i] = matpart.BlockRect{Proc: b.Proc, Col: b.Col, Row: b.Row, Cols: b.Cols, Rows: b.Rows}
		if served[i] != blocks[i] {
			return fmt.Errorf("matpart block %d differs from the library result", i)
		}
	}
	if err := matpart.CheckTiling(served, req.Grid); err != nil {
		return err
	}
	// The server encodes this response too; time the same encode.
	_, err = encode(t, resp)
	return err
}
