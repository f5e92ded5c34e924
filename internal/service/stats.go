package service

import (
	"sync"
	"sync/atomic"
	"time"

	"fupermod/internal/service/modelstore"
)

// shardStats holds one shard's monotonically increasing counters. All
// fields are updated with atomics so handlers never serialise on a stats
// lock; the per-tenant quota-rejection map is the one mutex-guarded
// exception (it is touched only on the rejection path, which is already
// the slow lane). Front-of-house counters (requests, errors, latency) live
// on the router (frontStats), which sees every request exactly once.
type shardStats struct {
	cacheHits      atomic.Int64 // model found ready in a tenant cache
	cacheMisses    atomic.Int64 // model absent: a fill was started
	cacheCoalesced atomic.Int64 // request joined an in-flight fill (single-flight)
	cacheEvictions atomic.Int64 // entries dropped by the LRU bound

	sweeps     atomic.Int64 // benchmark sweeps started
	sweepsDone atomic.Int64 // benchmark sweeps completed (wall time recorded)
	sweepNanos atomic.Int64 // cumulative wall time of the completed sweeps

	storeLoaded  atomic.Int64 // entries preloaded from the disk store at start
	storeHits    atomic.Int64 // fills served from the disk store (no sweep)
	storeSpills  atomic.Int64 // sweeps spilled to the disk store
	storeCorrupt atomic.Int64 // corrupt store files encountered (re-sweep path)
	storeErrors  atomic.Int64 // store writes that failed (entry kept in memory)

	transferRuns      atomic.Int64 // fills answered by cross-device transfer
	transferProbes    atomic.Int64 // benchmark probes spent by transfer attempts
	transferFallbacks atomic.Int64 // transfer attempts that fell back to a full sweep

	batchSolves      atomic.Int64 // solver calls made on behalf of a batch
	batchJoined      atomic.Int64 // batched requests that joined an existing batch
	batchWindowSkips atomic.Int64 // batch leaders that skipped the window (idle traffic or closed join gate)

	commCalibrations atomic.Int64 // comm-model calibrations actually executed

	dynpartRuns    atomic.Int64 // dynamic-partition runs actually executed
	balanceRuns    atomic.Int64 // balance replays actually executed
	rebalanceRuns  atomic.Int64 // rebalance decisions actually computed
	matpartRuns    atomic.Int64 // 2D matrix arrangements actually computed
	machineUploads atomic.Int64 // machine files accepted

	quotaRejections atomic.Int64 // requests rejected by the per-tenant quota

	quotaMu       sync.Mutex
	quotaByTenant map[string]int64
}

// rejectQuota records one quota rejection for the tenant.
func (s *shardStats) rejectQuota(tenant string) {
	s.quotaRejections.Add(1)
	s.quotaMu.Lock()
	if s.quotaByTenant == nil {
		s.quotaByTenant = make(map[string]int64)
	}
	s.quotaByTenant[tenant]++
	s.quotaMu.Unlock()
}

// counters captures the shard's counters as one addable value.
func (s *shardStats) counters() ShardCounters {
	c := ShardCounters{
		CacheHits:         s.cacheHits.Load(),
		CacheMisses:       s.cacheMisses.Load(),
		CacheCoalesced:    s.cacheCoalesced.Load(),
		CacheEvictions:    s.cacheEvictions.Load(),
		Sweeps:            s.sweeps.Load(),
		StoreLoaded:       s.storeLoaded.Load(),
		StoreHits:         s.storeHits.Load(),
		StoreSpills:       s.storeSpills.Load(),
		StoreCorrupt:      s.storeCorrupt.Load(),
		StoreErrors:       s.storeErrors.Load(),
		TransferRuns:      s.transferRuns.Load(),
		TransferProbes:    s.transferProbes.Load(),
		TransferFallbacks: s.transferFallbacks.Load(),
		BatchSolves:       s.batchSolves.Load(),
		BatchJoined:       s.batchJoined.Load(),
		BatchWindowSkips:  s.batchWindowSkips.Load(),
		CommCalibrations:  s.commCalibrations.Load(),
		DynpartRuns:       s.dynpartRuns.Load(),
		BalanceRuns:       s.balanceRuns.Load(),
		RebalanceRuns:     s.rebalanceRuns.Load(),
		MatpartRuns:       s.matpartRuns.Load(),
		MachineUploads:    s.machineUploads.Load(),
		QuotaRejections:   s.quotaRejections.Load(),
	}
	s.quotaMu.Lock()
	if len(s.quotaByTenant) > 0 {
		c.QuotaRejectionsByTenant = make(map[string]int64, len(s.quotaByTenant))
		for t, n := range s.quotaByTenant {
			c.QuotaRejectionsByTenant[t] = n
		}
	}
	s.quotaMu.Unlock()
	return c
}

// frontStats holds the router-level counters: every request is counted
// once at the front door, whatever shard (or none — a routing error)
// serves it. retired accumulates the counters of shards replaced by
// ReviveShard so the merged view stays monotone across failovers.
type frontStats struct {
	requests atomic.Int64 // HTTP requests accepted (all endpoints)
	errors   atomic.Int64 // requests answered with a non-2xx status
	latencyN atomic.Int64 // completed requests with measured latency
	latencyT atomic.Int64 // cumulative handler latency, nanoseconds

	preloadCorrupt atomic.Int64 // corrupt store files found while preloading

	retiredMu sync.Mutex
	retired   ShardCounters
}

// observe records one completed request.
func (f *frontStats) observe(d time.Duration, status int) {
	if status >= 300 {
		f.errors.Add(1)
	}
	f.latencyN.Add(1)
	f.latencyT.Add(int64(d))
}

// retire folds a replaced shard's final counters into the front's retired
// sum, so killing and reviving a shard never makes /stats go backwards.
func (f *frontStats) retire(c ShardCounters) {
	f.retiredMu.Lock()
	f.retired.add(c)
	f.retiredMu.Unlock()
}

// ShardCounters is the per-shard slice of the /stats schema: everything a
// single shard counts for itself. It appears twice in the endpoint — once
// per shard (ShardSnapshot) and once summed across shards plus retired
// predecessors (Snapshot). The schema is pinned by a golden-file test
// (stats_golden_test.go): new counters must be added there deliberately,
// never by accident.
type ShardCounters struct {
	// Cache counters: a hit returns a fitted model with no work, a miss
	// triggers one fill, a coalesced request waited on a fill another
	// request had already started (single-flight), and evictions count
	// entries dropped by the per-tenant LRU bound.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	CacheEvictions int64 `json:"cache_evictions"`

	// Sweeps counts benchmark sweeps actually executed — the expensive
	// operation the cache, single-flight and disk store exist to avoid.
	Sweeps int64 `json:"sweeps"`

	// Disk-store counters: entries preloaded at start, fills answered
	// from disk instead of sweeping, sweeps spilled to disk, corrupt
	// files encountered (each one re-swept, never served), and failed
	// spill writes.
	StoreLoaded  int64 `json:"store_loaded"`
	StoreHits    int64 `json:"store_hits"`
	StoreSpills  int64 `json:"store_spills"`
	StoreCorrupt int64 `json:"store_corrupt"`
	StoreErrors  int64 `json:"store_errors"`

	// Cross-device transfer counters: fills answered by a warm-started
	// model, benchmark probes those attempts spent (compare against
	// Sweeps × grid size for the saving), and attempts that fell back to
	// the ordinary full sweep (no donor, gate rejection, divergence).
	TransferRuns      int64 `json:"transfer_runs"`
	TransferProbes    int64 `json:"transfer_probes"`
	TransferFallbacks int64 `json:"transfer_fallbacks"`

	// BatchSolves counts solver calls, BatchJoined the requests that were
	// answered by a run another request triggered, and BatchWindowSkips
	// the batch leaders that did not wait the window: the adaptive
	// controller found traffic idle, or the join gate had seen nobody
	// joining.
	BatchSolves      int64 `json:"batch_solves"`
	BatchJoined      int64 `json:"batch_joined"`
	BatchWindowSkips int64 `json:"batch_window_skips"`

	// CommCalibrations counts communication-model calibrations executed;
	// repeated comm-aware requests are served from the calibration cache.
	CommCalibrations int64 `json:"comm_calibrations"`

	// Dynamic-endpoint counters: model-free partition runs, balance
	// replays, rebalance decisions, 2D matrix arrangements, and accepted
	// machine-file uploads.
	DynpartRuns    int64 `json:"dynpart_runs"`
	BalanceRuns    int64 `json:"balance_runs"`
	RebalanceRuns  int64 `json:"rebalance_runs"`
	MatpartRuns    int64 `json:"matpart_runs"`
	MachineUploads int64 `json:"machine_uploads"`

	// QuotaRejections counts requests rejected by the per-tenant
	// admission quota, in total and per tenant.
	QuotaRejections         int64            `json:"quota_rejections"`
	QuotaRejectionsByTenant map[string]int64 `json:"quota_rejections_by_tenant,omitempty"`
}

// add accumulates o into c (map keys merged by sum).
func (c *ShardCounters) add(o ShardCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheCoalesced += o.CacheCoalesced
	c.CacheEvictions += o.CacheEvictions
	c.Sweeps += o.Sweeps
	c.StoreLoaded += o.StoreLoaded
	c.StoreHits += o.StoreHits
	c.StoreSpills += o.StoreSpills
	c.StoreCorrupt += o.StoreCorrupt
	c.StoreErrors += o.StoreErrors
	c.TransferRuns += o.TransferRuns
	c.TransferProbes += o.TransferProbes
	c.TransferFallbacks += o.TransferFallbacks
	c.BatchSolves += o.BatchSolves
	c.BatchJoined += o.BatchJoined
	c.BatchWindowSkips += o.BatchWindowSkips
	c.CommCalibrations += o.CommCalibrations
	c.DynpartRuns += o.DynpartRuns
	c.BalanceRuns += o.BalanceRuns
	c.RebalanceRuns += o.RebalanceRuns
	c.MatpartRuns += o.MatpartRuns
	c.MachineUploads += o.MachineUploads
	c.QuotaRejections += o.QuotaRejections
	if len(o.QuotaRejectionsByTenant) > 0 {
		if c.QuotaRejectionsByTenant == nil {
			c.QuotaRejectionsByTenant = make(map[string]int64, len(o.QuotaRejectionsByTenant))
		}
		for t, n := range o.QuotaRejectionsByTenant {
			c.QuotaRejectionsByTenant[t] += n
		}
	}
}

// ShardSnapshot is one shard's view in the /stats response.
type ShardSnapshot struct {
	// Shard is the shard's index, Live whether the ring currently routes
	// tenants to it.
	Shard int  `json:"shard"`
	Live  bool `json:"live"`
	ShardCounters
	// Tenants and CacheEntries describe the shard's cache population.
	Tenants      int `json:"tenants"`
	CacheEntries int `json:"cache_entries"`
}

// Snapshot is the JSON shape of the /stats endpoint: the merged view
// (front-door request counters plus per-shard counters summed, retired
// shards included) followed by the per-shard breakdown. A single-shard
// server serves exactly the pre-sharding schema plus the "shards" list.
type Snapshot struct {
	// Requests counts every request accepted, Errors those answered with
	// a non-2xx status; AvgLatencyMicros is the mean handler latency.
	Requests         int64   `json:"requests"`
	Errors           int64   `json:"errors"`
	AvgLatencyMicros float64 `json:"avg_latency_micros"`

	ShardCounters

	// Tenants and CacheEntries sum the cache population across shards (a
	// tenant lives on exactly one live shard, so the sum never double
	// counts).
	Tenants      int `json:"tenants"`
	CacheEntries int `json:"cache_entries"`

	// Workers is the size of the worker pool all shards share.
	Workers int `json:"workers"`

	// Store is the on-disk model store's census (entries, bytes, per-tenant
	// counts, transferred entries) — the donor pool cross-device transfer
	// draws from. All-zero on storeless servers.
	Store modelstore.StoreStats `json:"store"`

	// Shards is the per-shard breakdown; absent on merged-of-merged views
	// (the route CLI's cross-process aggregation).
	Shards []ShardSnapshot `json:"shards,omitempty"`
}

// MergeSnapshots aggregates whole-server snapshots — the route CLI uses it
// to merge the /stats of every live backend into one fleet view. The
// per-shard breakdown is intentionally dropped (shard indices only mean
// something within one process); AvgLatencyMicros is weighted by request
// count.
func MergeSnapshots(snaps []Snapshot) Snapshot {
	var out Snapshot
	var latT float64
	for _, s := range snaps {
		out.Requests += s.Requests
		out.Errors += s.Errors
		latT += s.AvgLatencyMicros * float64(s.Requests)
		out.ShardCounters.add(s.ShardCounters)
		out.Tenants += s.Tenants
		out.CacheEntries += s.CacheEntries
		out.Workers += s.Workers
		// Store censuses sum like Workers do: replicas sharing one store
		// directory each report the same files, so the fleet view counts
		// capacity per backend, not unique bytes.
		out.Store.Add(s.Store)
	}
	if out.Requests > 0 {
		out.AvgLatencyMicros = latT / float64(out.Requests)
	}
	return out
}
