package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync/atomic"

	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/pool"
)

// The request pipeline. Every POST endpoint is one op in the table below,
// declared as three steps: check validates and canonicalises the decoded
// request on its own, resolve turns it into a job on the tenant's shard
// (device references, cached models, comm calibrations), and solve
// computes the response from the job alone. serve owns everything else
// once: decode, tenant, shard, the batcher and its pool slot, and the
// error/encode tail.
//
// An op with a run counter is batched: concurrent requests whose jobs are
// equal share one solve. The batch key is the op name plus the
// encoding/json encoding of the job's exported fields, so it covers
// exactly what solve reads and nothing can drift between the two. JSON
// quotes every string (and decoded strings are valid UTF-8, which it
// encodes injectively), so no free-text field such as a tenant name can
// spill into the next one.

// ops is the endpoint table: POST /v1/<name> for each entry.
var ops = []endpoint{
	op[MeasureRequest, fitted, MeasureResponse]{
		name: "measure", resolve: resolveFitted, solve: measured},
	op[ModelRequest, fitted, ModelResponse]{
		name: "model", resolve: resolveFitted, solve: modelled},
	op[PartitionRequest, *partitionJob, *PartitionResponse]{
		name: "partition", check: checkPartition, resolve: resolvePartition, solve: distribute,
		runs: func(st *shardStats) *atomic.Int64 { return &st.batchSolves }},
	op[DynpartRequest, *dynpartJob, *DynpartResponse]{
		name: "dynpart", check: checkDynpart, resolve: resolveDynpart, solve: solveDynpart,
		runs: func(st *shardStats) *atomic.Int64 { return &st.dynpartRuns }, quota: true},
	op[BalanceRequest, *BalanceRequest, *BalanceResponse]{
		name: "balance", check: checkBalance, resolve: itself[BalanceRequest], solve: solveBalance,
		runs: func(st *shardStats) *atomic.Int64 { return &st.balanceRuns }},
	op[RebalanceRequest, *rebalanceJob, *RebalanceResponse]{
		name: "rebalance", check: checkRebalance, resolve: resolveRebalance, solve: solveRebalance,
		runs: func(st *shardStats) *atomic.Int64 { return &st.rebalanceRuns }},
	op[MatpartRequest, *MatpartRequest, *MatpartResponse]{
		name: "matpart", check: checkMatpart, resolve: itself[MatpartRequest], solve: solveMatpart,
		runs: func(st *shardStats) *atomic.Int64 { return &st.matpartRuns }},
	op[MachineRequest, *MachineResponse, *MachineResponse]{
		name: "machine", resolve: resolveMachine, solve: same[*MachineResponse],
		check: func(req *MachineRequest) error { _, err := parseMachine(req); return err }},
}

// request is what the pipeline needs of every decoded request type.
type request interface{ tenantName() string }

func (r MeasureRequest) tenantName() string   { return r.Tenant }
func (r PartitionRequest) tenantName() string { return r.Tenant }
func (r DynpartRequest) tenantName() string   { return r.Tenant }
func (r BalanceRequest) tenantName() string   { return r.Tenant }
func (r RebalanceRequest) tenantName() string { return r.Tenant }
func (r MatpartRequest) tenantName() string   { return r.Tenant }
func (r MachineRequest) tenantName() string   { return r.Tenant }

// op declares one endpoint; check may be nil. An op without a runs
// counter is unbatched and solves inline. A batched op's leader first
// takes a tenant quota slot if quota is set (the op sweeps), then a pool
// slot, in which it bumps the runs counter and solves.
type op[Req request, Job, Resp any] struct {
	name    string
	runs    func(*shardStats) *atomic.Int64
	quota   bool
	check   func(*Req) error
	resolve func(sh *shard, tenant string, req *Req) (Job, error)
	solve   func(Job) (Resp, error)
}

// endpoint is an op as the table holds it.
type endpoint interface {
	path() string
	serve(s *Server, w http.ResponseWriter, r *http.Request) error
}

func (o op[Req, Job, Resp]) path() string { return "/v1/" + o.name }

func (o op[Req, Job, Resp]) serve(s *Server, w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodPost {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"}
	}
	// Read the whole body before decoding: a body past the 1 MiB cap is
	// refused even when its first JSON value ends inside it.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	var req Req
	if err == nil {
		err = DecodeJSON(bytes.NewReader(body), &req)
	}
	if err != nil {
		return badRequest("malformed request: %v", err)
	}
	if o.check != nil {
		if err := o.check(&req); err != nil {
			return err
		}
	}
	tenant := TenantOf(req.tenantName())
	sh, err := s.shardFor(tenant)
	if err != nil {
		return err
	}
	job, err := o.resolve(sh, tenant, &req)
	if err != nil {
		return err
	}
	if o.runs == nil {
		resp, err := o.solve(job)
		if err != nil {
			return err
		}
		return writeJSON(w, resp)
	}
	key, err := JobKey(o.name, job)
	if err != nil {
		return err
	}
	v, err := sh.batched(key, func() (any, error) {
		if o.quota {
			if !sh.quota.acquire(tenant) {
				return nil, sh.rejectQuota(tenant)
			}
			defer sh.quota.release(tenant)
		}
		var resp Resp
		err := pool.Do(sh.ctx, sh.pool, func(context.Context) error {
			o.runs(&sh.stats).Add(1)
			var err error
			resp, err = o.solve(job)
			return err
		})
		return resp, err
	})
	if err != nil {
		return asRequestError(err, "%v", err)
	}
	return writeJSON(w, v)
}

// JobKey is the batch key of a resolved job: the op name followed by the
// job's JSON encoding. It is exported so the perf harness (internal/bench)
// can track its cost — the key is computed on every batched request.
func JobKey(op string, job any) (string, error) {
	b, err := json.Marshal(job)
	if err != nil {
		return "", err
	}
	return op + string(b), nil
}

// itself is the resolve of an op whose checked request is its whole job.
func itself[R any](_ *shard, _ string, req *R) (*R, error) { return req, nil }

// same is the solve of an op whose resolve already built the response.
func same[T any](v T) (T, error) { return v, nil }

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// checkDevices bounds a request's device list.
func checkDevices(devs []DeviceSpec) error {
	if len(devs) == 0 {
		return badRequest("at least one device is required")
	}
	if len(devs) > MaxDevices {
		return badRequest("%d devices exceed the limit of %d", len(devs), MaxDevices)
	}
	return nil
}

// checkProcs bounds the process count and problem size of a replay.
func checkProcs(n, d int) error {
	if n <= 0 || n > MaxDevices {
		return badRequest("process count n=%d must be in [1, %d]", n, MaxDevices)
	}
	if d < n {
		return badRequest("problem size d=%d smaller than process count %d", d, n)
	}
	return nil
}

// checkIterations checks an observation history: at least one iteration,
// n finite non-negative times each, and — when the distribution the times
// were measured under is given — a non-zero time for every loaded process.
func checkIterations(iters [][]float64, n int, units []int) error {
	if len(iters) == 0 {
		return badRequest("at least one observed iteration is required")
	}
	for i, times := range iters {
		if len(times) != n {
			return badRequest("iteration %d has %d times for %d processes", i, len(times), n)
		}
		for j, t := range times {
			if t < 0 || !finite(t) {
				return badRequest("iteration %d process %d: time %g must be finite and non-negative", i, j, t)
			}
			if units != nil && units[j] > 0 && t == 0 {
				return badRequest("iteration %d process %d: zero time for a loaded process", i, j)
			}
		}
	}
	return nil
}

// defaultKind fills an empty model kind with def and checks it.
func defaultKind(kind *string, def string) error {
	if *kind == "" {
		*kind = def
	}
	if _, err := model.New(*kind); err != nil {
		return badRequest("%v", err)
	}
	return nil
}

// defaultAlgorithm fills an empty partitioner name with geometric and
// checks it.
func defaultAlgorithm(name *string) error {
	if *name == "" {
		*name = "geometric"
	}
	if _, err := partition.ByName(*name); err != nil {
		return badRequest("%v", err)
	}
	return nil
}
