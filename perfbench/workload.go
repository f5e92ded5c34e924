package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"fupermod/internal/service"
)

// presets are the virtual devices every workload draws from, in the order
// tenants cycle through them.
var presets = []string{"netlib-blas", "fast", "slow", "paging", "gpu", "socket-core"}

// grid is the size grid of every model key: 40 sizes from 16 to 60000
// units, the service's usual full-sweep resolution.
var grid = service.Grid{Lo: 16, Hi: 60000, N: 40}

// noise is the relative measurement noise of every device; noisy devices
// make the benchmark's stopping rule take a data-dependent number of
// repetitions, as real devices do.
const noise = 0.05

// workload is one traffic mix together with the server state it starts
// from. The three workloads are described in README.md.
type workload struct {
	name string
	// tenants × devices are the model keys the tenants reuse. They are
	// swept into the store before the server starts, so a server start
	// preloads them; cold requests name two of them beside two fresh keys.
	tenants, devices int
	// cold makes every request a /v1/partition naming two never-seen keys
	// beside two of its tenant's recurring ones; otherwise no request of
	// the run sweeps.
	cold bool
	// transfer turns on cross-device model transfer; donors full-sweep
	// curves are stored at set-up as its donor pool.
	transfer bool
	donors   int
	// warmups is how many mix requests run before timing starts.
	warmups int
	// tail is the percentile reported as latency_tail_ms: the highest one
	// a window of this workload holds at least ten samples beyond.
	tail float64
	// window is the length of the slices of the timed phase the latency
	// percentiles and the throughput are taken over; 0 takes them over the
	// whole phase.
	window time.Duration
}

var workloads = []workload{
	{name: "warm-mix", tenants: 32, devices: 8, warmups: 1000, tail: 0.99, window: time.Second},
	// cold-sweep latency falls for about 10 s after the timed phase starts,
	// and in some runs again after a jump at 10 s, so shorter windows land
	// on different parts of that curve from run to run: one window.
	{name: "cold-sweep", tenants: 8, devices: 4, cold: true, warmups: 200, tail: 0.99},
	// Every cold-transfer fill grows the store its next fills read, so a
	// window's latency depends on how many fills ran before it: one window.
	{name: "cold-transfer", tenants: 8, devices: 4, cold: true, transfer: true, donors: 600, warmups: 20, tail: 0.90},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// derive maps a seed and a path of integers to an independent positive
// int63 with splitmix64, so every key, stream and donor of a run is a pure
// function of the run's seed.
func derive(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range append(path, 0) {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}

// Seed-derivation tags, one per independent stream of a run.
const (
	tagWorkload = iota + 1
	tagTenantKey
	tagDonor
	tagWarmup
	tagTimed
)

func tenantName(w workload, t int) string {
	if w.cold {
		return fmt.Sprintf("c%d", t)
	}
	return fmt.Sprintf("t%02d", t)
}

// tenantDevice is the j-th reused key of tenant t: the presets are cycled so
// every seed gives the same device mix, and only the noise seeds vary.
func tenantDevice(seed int64, t, j int) service.DeviceSpec {
	return service.DeviceSpec{
		Preset: presets[(t+j)%len(presets)],
		Seed:   derive(seed, tagTenantKey, int64(t), int64(j)),
		Noise:  noise,
	}
}

// Request is one generated request: the endpoint and the exact bytes sent.
type Request struct {
	Endpoint string
	Body     []byte
	// Cold lists the never-seen model keys the request names, in the
	// shape /v1/measure takes, so their points can be fetched afterwards.
	Cold []service.MeasureRequest
}

// stream generates a workload's requests in a fixed order from a seed.
// It is not safe for concurrent use; the load generator serialises next.
type stream struct {
	w     workload
	seed  int64 // the run seed: tenant keys derive from it
	phase int64 // tagWarmup or tagTimed: fresh keys of the phases differ
	rng   *rand.Rand
	fresh int64 // fresh keys handed out so far
}

func newStream(w workload, seed, phase int64) *stream {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	s := derive(seed, tagWorkload, int64(h.Sum64()>>1), phase)
	return &stream{w: w, seed: seed, phase: phase, rng: rand.New(rand.NewSource(s))}
}

// next returns the stream's next request.
func (s *stream) next() Request {
	if s.w.cold {
		return s.coldPartition()
	}
	switch u := s.rng.Float64(); {
	case u < 0.70:
		return s.warmPartition()
	case u < 0.80:
		return s.dynpart()
	case u < 0.90:
		return s.matpart()
	default:
		return s.balance()
	}
}

// algorithm draws the partition solver and model kind: mostly the
// geometric solver over piecewise models, some numerical, some Akima.
func (s *stream) algorithm() (alg, kind string) {
	switch u := s.rng.Float64(); {
	case u < 0.8:
		return "geometric", ""
	case u < 0.9:
		return "numerical", ""
	default:
		return "numerical", "fpm-akima"
	}
}

func (s *stream) warmPartition() Request {
	t := s.rng.Intn(s.w.tenants)
	k := 2 + s.rng.Intn(s.w.devices-1)
	devs := make([]service.DeviceSpec, k)
	for i, j := range s.rng.Perm(s.w.devices)[:k] {
		devs[i] = tenantDevice(s.seed, t, j)
	}
	alg, kind := s.algorithm()
	return encodeRequest("/v1/partition", service.PartitionRequest{
		Tenant: tenantName(s.w, t), Devices: devs, Grid: grid,
		Model: kind, Algorithm: alg, D: 1000 + s.rng.Intn(k*20000),
	}, nil)
}

func (s *stream) coldPartition() Request {
	t := s.rng.Intn(s.w.tenants)
	tenant := tenantName(s.w, t)
	alg, kind := s.algorithm()
	recurring := s.rng.Perm(s.w.devices)[:2]
	devs := []service.DeviceSpec{
		tenantDevice(s.seed, t, recurring[0]),
		tenantDevice(s.seed, t, recurring[1]),
	}
	var cold []service.MeasureRequest
	for i := 0; i < 2; i++ {
		s.fresh++
		dev := service.DeviceSpec{
			Preset: presets[s.fresh%int64(len(presets))],
			Seed:   derive(s.seed, s.phase, s.fresh),
			Noise:  noise,
		}
		devs = append(devs, dev)
		cold = append(cold, service.MeasureRequest{Tenant: tenant, Device: dev, Grid: grid, Model: kind})
	}
	s.rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
	return encodeRequest("/v1/partition", service.PartitionRequest{
		Tenant: tenant, Devices: devs, Grid: grid,
		Model: kind, Algorithm: alg, D: 1000 + s.rng.Intn(80000),
	}, cold)
}

func (s *stream) dynpart() Request {
	t := s.rng.Intn(s.w.tenants)
	devs := make([]service.DeviceSpec, 6)
	for j := range devs {
		devs[j] = tenantDevice(s.seed, t, j)
	}
	return encodeRequest("/v1/dynpart", service.DynpartRequest{
		Tenant: tenantName(s.w, t), Devices: devs, D: 6000 + s.rng.Intn(54000),
	}, nil)
}

func (s *stream) matpart() Request {
	areas := make([]float64, 48)
	for i := range areas {
		areas[i] = 0.1 + 0.9*s.rng.Float64()
	}
	return encodeRequest("/v1/matpart", service.MatpartRequest{
		Tenant: tenantName(s.w, s.rng.Intn(s.w.tenants)), Areas: areas, Grid: 64,
	}, nil)
}

// balance replays three iterations of six processes whose speeds differ up
// to threefold, each observation jittered by up to 10%.
func (s *stream) balance() Request {
	const n, iters = 6, 3
	base := make([]float64, n)
	for j := range base {
		base[j] = 0.5 + s.rng.Float64()
	}
	obs := make([][]float64, iters)
	for i := range obs {
		obs[i] = make([]float64, n)
		for j := range obs[i] {
			obs[i][j] = base[j] * (1 + 0.1*s.rng.Float64())
		}
	}
	return encodeRequest("/v1/balance", service.BalanceRequest{
		Tenant: tenantName(s.w, s.rng.Intn(s.w.tenants)), N: n,
		D: 6000 + s.rng.Intn(54000), Iterations: obs,
	}, nil)
}

// warmRequests are the deterministic requests that put every reused key
// into the server's caches under both model kinds before the mix starts.
func warmRequests(w workload, seed int64) []Request {
	var out []Request
	for t := 0; t < w.tenants; t++ {
		devs := make([]service.DeviceSpec, w.devices)
		for j := range devs {
			devs[j] = tenantDevice(seed, t, j)
		}
		for _, kind := range []string{"", "fpm-akima"} {
			out = append(out, encodeRequest("/v1/partition", service.PartitionRequest{
				Tenant: tenantName(w, t), Devices: devs, Grid: grid,
				Model: kind, Algorithm: "numerical", D: 10000 * w.devices,
			}, nil))
		}
	}
	return out
}

func encodeRequest(endpoint string, v any, cold []service.MeasureRequest) Request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated %s request: %v", endpoint, err))
	}
	return Request{Endpoint: endpoint, Body: body, Cold: cold}
}
