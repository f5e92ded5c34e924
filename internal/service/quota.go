package service

import (
	"math"
	"net/http"
	"sync"
	"time"
)

// quotas is the weighted fair admission controller for the expensive,
// pool-occupying work (benchmark sweeps and dynamic-partition runs). Each
// tenant may hold at most slots×weight such operations in flight; a
// request that would exceed the bound is rejected with 429 + Retry-After
// instead of queueing, so one tenant's sweep storm consumes its own share
// of the shared pool and nothing more — another tenant's single request is
// delayed by at most whatever sweep already occupies its slot.
//
// Cache hits, coalesced waits, disk-store hits and plain solver calls are
// deliberately exempt: they do not monopolise the pool, and rejecting them
// would punish exactly the requests the cache exists to make cheap.
type quotas struct {
	slots   int            // in-flight operations per weight unit
	weights map[string]int // tenant → weight; absent (or < 1) weighs 1

	mu       sync.Mutex
	inflight map[string]int
}

// newQuotas returns the admission controller, or nil (admit everything)
// when slots <= 0.
func newQuotas(slots int, weights map[string]int) *quotas {
	if slots <= 0 {
		return nil
	}
	w := make(map[string]int, len(weights))
	for t, v := range weights {
		w[TenantOf(t)] = v
	}
	return &quotas{slots: slots, weights: w, inflight: make(map[string]int)}
}

// acquire admits one expensive operation for the tenant, reporting false
// on breach. Callers must release() exactly once per successful acquire.
func (q *quotas) acquire(tenant string) bool {
	if q == nil {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] >= q.slots*max(q.weights[tenant], 1) {
		return false
	}
	q.inflight[tenant]++
	return true
}

func (q *quotas) release(tenant string) {
	if q == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.inflight[tenant] > 0 {
		q.inflight[tenant]--
	}
}

// rejectQuota builds the 429 a breached tenant receives, records it, and
// estimates Retry-After from the observed mean sweep duration — the time
// scale at which an in-flight slot frees up.
func (sh *shard) rejectQuota(tenant string) error {
	sh.stats.rejectQuota(tenant)
	return &httpError{
		status:     http.StatusTooManyRequests,
		msg:        "tenant " + tenant + " exceeded its in-flight sweep quota",
		retryAfter: sh.retryAfterSecs(),
	}
}

// retryAfterSecs is the mean observed sweep duration rounded up to whole
// seconds, at least 1. The mean divides by *completed* sweeps only:
// dividing by started sweeps (as this used to) counts every in-flight
// sweep's zero nanoseconds, biasing the estimate toward the 1s floor
// exactly when the shard is busiest — the moment the estimate matters.
func (sh *shard) retryAfterSecs() int {
	n := sh.stats.sweepsDone.Load()
	if n <= 0 {
		// Nothing has completed yet (cold shard, or every sweep still in
		// flight): there is no observed time scale, only the floor.
		return 1
	}
	avg := time.Duration(sh.stats.sweepNanos.Load() / n)
	return max(int(math.Ceil(avg.Seconds())), 1)
}
