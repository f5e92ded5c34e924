package service

import (
	"fmt"
	"math"

	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/rebalance"
)

// /v1/rebalance is the elastic-repartitioning decision as a service: the
// client has been running its current distribution for a while, the
// platform drifted underneath it, and it asks whether moving to the
// distribution the drift'd measurements suggest is worth the bytes. Like
// /v1/balance the computation is a stateless replay — the observation
// history travels in the request — so identical requests get identical
// decisions on any shard of any replica, and the whole run batches like
// every op (op.go).

// RebalanceRequest asks for a cost-gated repartitioning decision. The
// observed iterations must all have been measured under Units, the
// distribution currently in use.
type RebalanceRequest struct {
	Tenant string `json:"tenant"`
	// N is the process count, D the total problem size.
	N int `json:"n"`
	D int `json:"d"`
	// Units is the current (old) distribution, one entry per process,
	// summing to D.
	Units []int `json:"units"`
	// Iterations holds the observed per-process compute times measured
	// under Units, oldest first, each of length N. The drift the client
	// wants priced is in here.
	Iterations [][]float64 `json:"iterations"`
	// Model is the partial-model kind fed with the observations; empty
	// selects the adaptive CPM (the drift-tracking choice).
	Model string `json:"model,omitempty"`
	// Algorithm is the partitioner proposing the new distribution; empty
	// selects geometric.
	Algorithm string `json:"algorithm,omitempty"`
	// Rounds is the expected number of remaining computation rounds the
	// migration cost is amortized over.
	Rounds int `json:"rounds"`
	// UnitBytes is the wire size of one computation unit's data — what a
	// reassigned unit costs to ship.
	UnitBytes float64 `json:"unit_bytes"`
	// Comm selects the calibrated network model pricing the migration
	// links (net/op/model; its bytes_per_unit plays no role here — the
	// migration payload is UnitBytes).
	Comm *CommSpec `json:"comm"`
}

// MovePayload is one priced transfer of the migration plan.
type MovePayload struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Units int     `json:"units"`
	Bytes float64 `json:"bytes"`
}

// RebalanceResponse returns the decision, the plan, and every priced cost
// that produced it. It is a pure function of the request.
type RebalanceResponse struct {
	Algorithm string `json:"algorithm"`
	Model     string `json:"model"`
	D         int    `json:"d"`
	N         int    `json:"n"`
	// OldUnits echoes the request's distribution; NewUnits is the
	// partitioner's proposal from the drift'd observations.
	OldUnits []int `json:"old_units"`
	NewUnits []int `json:"new_units"`
	// Migrate is the verdict; the remaining fields are the arithmetic
	// behind it (all times in seconds).
	Migrate       bool    `json:"migrate"`
	Rounds        int     `json:"rounds"`
	KeepPerRoundS float64 `json:"keep_per_round_s"`
	NewPerRoundS  float64 `json:"new_per_round_s"`
	MigrationS    float64 `json:"migration_s"`
	KeepTotalS    float64 `json:"keep_total_s"`
	MigrateTotalS float64 `json:"migrate_total_s"`
	GainS         float64 `json:"gain_s"`
	// The byte-movement plan: per-rank volumes and the move list.
	MovedUnits int           `json:"moved_units"`
	Moves      []MovePayload `json:"moves,omitempty"`
	SendBytes  []float64     `json:"send_bytes"`
	RecvBytes  []float64     `json:"recv_bytes"`
	// Comm fingerprints the calibrated link model that priced the plan.
	Comm string `json:"comm"`
}

func checkRebalance(req *RebalanceRequest) error {
	if err := checkProcs(req.N, req.D); err != nil {
		return err
	}
	if len(req.Units) != req.N {
		return badRequest("units has %d entries for %d processes", len(req.Units), req.N)
	}
	sum := 0
	for i, u := range req.Units {
		if u < 0 {
			return badRequest("units[%d] = %d is negative", i, u)
		}
		if u > math.MaxInt-sum {
			return badRequest("units[%d] = %d overflows the units sum", i, u)
		}
		sum += u
	}
	if sum != req.D {
		return badRequest("units sum to %d, want d=%d", sum, req.D)
	}
	if err := checkIterations(req.Iterations, req.N, req.Units); err != nil {
		return err
	}
	if req.Rounds <= 0 {
		return badRequest("rounds must be positive, got %d", req.Rounds)
	}
	if req.UnitBytes <= 0 || !finite(req.UnitBytes) {
		return badRequest("unit_bytes %g must be finite and positive", req.UnitBytes)
	}
	if req.Comm == nil {
		return badRequest("a comm spec is required: the decision prices bytes on a network")
	}
	if err := defaultKind(&req.Model, model.KindAdaptive); err != nil {
		return err
	}
	return defaultAlgorithm(&req.Algorithm)
}

// rebalanceJob is a checked rebalance request with its comm spec resolved
// to the shard's calibrated link model. Comm shadows the request's raw
// spec, in Go and in the batch key, with the fingerprint of what priced
// the plan.
type rebalanceJob struct {
	RebalanceRequest
	Comm string `json:"comm"`
	link rebalance.CommCost
}

func resolveRebalance(sh *shard, tenant string, req *RebalanceRequest) (*rebalanceJob, error) {
	link, commTag, err := sh.commModel(*req.Comm, req.N)
	if err != nil {
		return nil, asRequestError(err, "comm: %v", err)
	}
	job := &rebalanceJob{RebalanceRequest: *req, Comm: commTag, link: link}
	job.Tenant = tenant
	return job, nil
}

// solveRebalance is the pure library path of the endpoint: replay the
// observations into partial models, propose, plan, price, decide. The
// cross-replica differential replays exactly this sequence directly.
func solveRebalance(job *rebalanceJob) (*RebalanceResponse, error) {
	algo, _ := partition.ByName(job.Algorithm) // checked by defaultAlgorithm
	old := &core.Dist{D: job.D, Parts: make([]core.Part, job.N)}
	for i, u := range job.Units {
		old.Parts[i].D = u
	}
	models := make([]core.Model, job.N)
	for i := range models {
		m, err := model.New(job.Model)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	for it, times := range job.Iterations {
		for i, t := range times {
			if job.Units[i] <= 0 {
				continue // an unloaded process measured nothing
			}
			if err := models[i].Update(core.Point{D: job.Units[i], Time: t, Reps: 1}); err != nil {
				return nil, fmt.Errorf("iteration %d: updating model %d: %w", it, i, err)
			}
		}
	}
	proposal, err := algo.Partition(models, job.D)
	if err != nil {
		return nil, fmt.Errorf("proposing: %w", err)
	}
	oldPred, err := dynamic.PredictTimes(models, old)
	if err != nil {
		return nil, fmt.Errorf("predicting current makespan: %w", err)
	}
	newPred, err := dynamic.PredictTimes(models, proposal)
	if err != nil {
		return nil, fmt.Errorf("predicting proposed makespan: %w", err)
	}
	dec, err := rebalance.Decide(oldPred, newPred, rebalance.Uniform(job.link), job.UnitBytes, job.Rounds)
	if err != nil {
		return nil, err
	}
	newUnits := make([]int, job.N)
	for i, p := range proposal.Parts {
		newUnits[i] = p.D
	}
	moves := make([]MovePayload, len(dec.Plan.Moves))
	for i, m := range dec.Plan.Moves {
		moves[i] = MovePayload{From: m.From, To: m.To, Units: m.Units, Bytes: float64(m.Units) * dec.Plan.UnitBytes}
	}
	return &RebalanceResponse{
		Algorithm:     job.Algorithm,
		Model:         job.Model,
		D:             job.D,
		N:             job.N,
		OldUnits:      append([]int(nil), job.Units...),
		NewUnits:      newUnits,
		Migrate:       dec.Migrate,
		Rounds:        dec.Rounds,
		KeepPerRoundS: dec.KeepPerRound,
		NewPerRoundS:  dec.NewPerRound,
		MigrationS:    dec.MigrationTime,
		KeepTotalS:    dec.KeepTotal,
		MigrateTotalS: dec.MigrateTotal,
		GainS:         dec.Gain,
		MovedUnits:    dec.Plan.MovedUnits,
		Moves:         moves,
		SendBytes:     dec.Plan.SendBytes(),
		RecvBytes:     dec.Plan.RecvBytes(),
		Comm:          job.Comm,
	}, nil
}
