package service

import (
	"fmt"

	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
)

// The dynamic endpoints expose the paper's model-free algorithms (§4.4)
// through the same tenant/batch/quota plumbing as the model-based path:
//
//	/v1/dynpart  runs dynamic data partitioning — iterative benchmarking of
//	             partial models until the distribution stabilises. The run
//	             is expensive (it sweeps) and therefore quota-metered and
//	             batched: identical runs within a window share one result.
//	/v1/balance  replays an application's observed per-iteration times
//	             through the dynamic load balancer. The replay is stateless
//	             — the full observation history travels in the request — so
//	             identical histories give identical proposals whether
//	             replayed cold, batched, or after a restart.

// DefaultDynEps is the dynpart convergence threshold when the request
// leaves eps unset.
const DefaultDynEps = 0.05

// DynpartRequest asks for a model-free dynamic partitioning run.
type DynpartRequest struct {
	Tenant  string       `json:"tenant"`
	Devices []DeviceSpec `json:"devices"`
	D       int          `json:"d"`
	// Model is the partial-model kind grown at each step; empty selects
	// the piecewise FPM.
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner invoked at every step; empty selects
	// geometric.
	Algorithm string `json:"algorithm,omitempty"`
	// Eps is the relative-change convergence threshold; 0 selects
	// DefaultDynEps.
	Eps float64 `json:"eps,omitempty"`
	// MaxIters caps the iterations; 0 selects the library default.
	MaxIters int `json:"max_iters,omitempty"`
}

// DynpartStep traces one iteration of the run (the paper's Fig. 3 rows).
type DynpartStep struct {
	Units       []int   `json:"units"`
	Change      float64 `json:"change"`
	ModelPoints int     `json:"model_points"`
}

// DynpartResponse returns the converged distribution and the trace.
type DynpartResponse struct {
	Algorithm  string        `json:"algorithm"`
	Model      string        `json:"model"`
	D          int           `json:"d"`
	Parts      []PartPayload `json:"parts"`
	MakespanS  float64       `json:"makespan_s"`
	Steps      []DynpartStep `json:"steps"`
	Converged  bool          `json:"converged"`
	BenchmarkS float64       `json:"benchmark_s"`
}

// dynpartJob is a dynpart request resolved on its shard: canonical device
// keys (their grid spans [1, D]) and the devices to benchmark.
type dynpartJob struct {
	Tenant    string     `json:"tenant"`
	Keys      []ModelKey `json:"keys"`
	Algorithm string     `json:"algorithm"`
	D         int        `json:"d"`
	Eps       float64    `json:"eps"`
	MaxIters  int        `json:"max_iters"`
	devs      []platform.Device
	precision core.Precision
}

func checkDynpart(req *DynpartRequest) error {
	if err := checkDevices(req.Devices); err != nil {
		return err
	}
	if req.D < len(req.Devices) {
		return badRequest("problem size d=%d smaller than device count %d", req.D, len(req.Devices))
	}
	if err := defaultKind(&req.Model, model.KindPiecewise); err != nil {
		return err
	}
	if err := defaultAlgorithm(&req.Algorithm); err != nil {
		return err
	}
	if req.Eps == 0 {
		req.Eps = DefaultDynEps
	}
	if req.Eps < 0 || !finite(req.Eps) {
		return badRequest("eps %g must be finite and positive", req.Eps)
	}
	if req.MaxIters < 0 {
		return badRequest("max_iters must be non-negative, got %d", req.MaxIters)
	}
	return nil
}

// resolveDynpart resolves and canonicalises every device up front: a
// dynpart run benchmarks real (virtual) devices, so machine refs must be
// live.
func resolveDynpart(sh *shard, tenant string, req *DynpartRequest) (*dynpartJob, error) {
	job := &dynpartJob{Tenant: tenant, Algorithm: req.Algorithm, D: req.D, Eps: req.Eps,
		MaxIters: req.MaxIters, precision: sh.precision}
	for i, spec := range req.Devices {
		key, err := sh.keyFor(tenant, spec, Grid{Lo: 1, Hi: req.D, N: 1}, req.Model)
		if err != nil {
			return nil, err
		}
		dev, err := sh.resolveDevice(tenant, key.Device)
		if err != nil {
			return nil, badRequest("device %d (%s): %v", i, spec.Preset, err)
		}
		job.Keys = append(job.Keys, key)
		job.devs = append(job.devs, dev)
	}
	return job, nil
}

// solveDynpart runs the iterations in its one pool slot: they benchmark
// the kernels serially, which keeps the seeded meters deterministic.
func solveDynpart(job *dynpartJob) (*DynpartResponse, error) {
	algo, _ := partition.ByName(job.Algorithm) // checked by defaultAlgorithm
	kind := job.Keys[0].Model
	kernelSet := make([]core.Kernel, len(job.devs))
	for i, dev := range job.devs {
		var err error
		if kernelSet[i], err = virtualKernel(dev, job.Keys[i].Noise, job.Keys[i].Seed); err != nil {
			return nil, err
		}
	}
	res, err := dynamic.PartitionDynamic(kernelSet, job.D, dynamic.Config{
		Algorithm: algo,
		NewModel:  func() core.Model { m, _ := model.New(kind); return m },
		Precision: job.precision,
		Eps:       job.Eps,
		MaxIters:  job.MaxIters,
	})
	if err != nil {
		return nil, err
	}
	parts := make([]PartPayload, len(res.Dist.Parts))
	for i, p := range res.Dist.Parts {
		parts[i] = PartPayload{Device: job.Keys[i].Device, Units: p.D, TimeS: p.Time}
	}
	steps := make([]DynpartStep, len(res.Steps))
	for i, st := range res.Steps {
		units := make([]int, len(st.Dist.Parts))
		for j, p := range st.Dist.Parts {
			units[j] = p.D
		}
		steps[i] = DynpartStep{Units: units, Change: st.Change, ModelPoints: st.ModelPoints}
	}
	return &DynpartResponse{
		Algorithm:  job.Algorithm,
		Model:      kind,
		D:          job.D,
		Parts:      parts,
		MakespanS:  res.Dist.MaxTime(),
		Steps:      steps,
		Converged:  res.Converged,
		BenchmarkS: res.BenchmarkSeconds,
	}, nil
}

// BalanceRequest replays observed per-iteration times through the dynamic
// load balancer (the Jacobi use case): iteration i's times must be the
// per-process compute times measured under the distribution the balancer
// proposed after iteration i-1 (even split for i = 0).
type BalanceRequest struct {
	Tenant string `json:"tenant"`
	// N is the process count, D the total problem size.
	N int `json:"n"`
	D int `json:"d"`
	// Model is the partial-model kind; empty selects the piecewise FPM.
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner; empty selects geometric.
	Algorithm string `json:"algorithm,omitempty"`
	// MinGain suppresses redistribution below this relative predicted
	// improvement.
	MinGain float64 `json:"min_gain,omitempty"`
	// Iterations holds the observed times, oldest first, each of length N.
	Iterations [][]float64 `json:"iterations"`
}

// BalanceIteration is the balancer's proposal after one observation.
type BalanceIteration struct {
	Units   []int `json:"units"`
	Changed bool  `json:"changed"`
}

// BalanceResponse returns the proposal trace and the final distribution
// the application should use next.
type BalanceResponse struct {
	Algorithm  string             `json:"algorithm"`
	Model      string             `json:"model"`
	D          int                `json:"d"`
	N          int                `json:"n"`
	Iterations []BalanceIteration `json:"iterations"`
	Units      []int              `json:"units"`
}

func checkBalance(req *BalanceRequest) error {
	req.Tenant = TenantOf(req.Tenant) // the checked request is the whole job
	if err := checkProcs(req.N, req.D); err != nil {
		return err
	}
	if err := checkIterations(req.Iterations, req.N, nil); err != nil {
		return err
	}
	if err := defaultKind(&req.Model, model.KindPiecewise); err != nil {
		return err
	}
	if err := defaultAlgorithm(&req.Algorithm); err != nil {
		return err
	}
	if req.MinGain < 0 || !finite(req.MinGain) {
		return badRequest("min_gain %g must be finite and non-negative", req.MinGain)
	}
	return nil
}

// solveBalance replays the history through a fresh balancer: pure
// computation (model updates and solver calls).
func solveBalance(req *BalanceRequest) (*BalanceResponse, error) {
	algo, _ := partition.ByName(req.Algorithm) // checked by defaultAlgorithm
	b, err := dynamic.NewBalancer(dynamic.Config{
		Algorithm: algo,
		NewModel:  func() core.Model { m, _ := model.New(req.Model); return m },
	}, req.D, req.N, req.MinGain)
	if err != nil {
		return nil, err
	}
	resp := &BalanceResponse{Algorithm: req.Algorithm, Model: req.Model, D: req.D, N: req.N}
	for i, times := range req.Iterations {
		changed, err := b.Observe(times)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		units := make([]int, req.N)
		for j, p := range b.Dist().Parts {
			units[j] = p.D
		}
		resp.Iterations = append(resp.Iterations, BalanceIteration{Units: units, Changed: changed})
	}
	resp.Units = resp.Iterations[len(resp.Iterations)-1].Units
	return resp, nil
}
