package service

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"fupermod/internal/core"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/service/ring"
	"fupermod/internal/transfer"
)

// Server is the partition service: a stateless routing layer in front of
// one or more shards (see shard.go). Tenants are spread across shards with
// a consistent-hash ring — each tenant lives on exactly one live shard, so
// the per-tenant serving semantics (LRU cache, single-flight, batching,
// admission quotas) hold shard-locally exactly as they did for the
// single-process server. All shards share one worker pool (the machine is
// one machine however it is sliced) and one durable model store, which is
// the source of truth: a shard that misses locally checks the store before
// sweeping, so replica caches stay coherent without any coherence
// protocol.
//
// Create with New; it is safe for concurrent use by any number of HTTP
// requests.
type Server struct {
	pool  *pool.Pool
	store *modelstore.Store
	ring  *ring.Ring

	options

	shardMu sync.RWMutex
	shards  []*shard

	front frontStats
}

// shardName is the ring member name of shard i. The ring hashes names, not
// indices, so the mapping must stay stable across restarts for store
// preloads to land on the owning shard.
func shardName(i int) string { return strconv.Itoa(i) }

// New returns a ready-to-serve Server hosting cfg.Shards shards (<= 0
// selects 1). With cfg.StoreDir set, the store directory is opened
// (created if absent) and every intact entry matching the server's sweep
// precision is preloaded into its owning shard's tenant caches before the
// first request.
func New(cfg Config) (*Server, error) {
	if cfg.Transfer {
		if cfg.StoreDir == "" {
			return nil, fmt.Errorf("service: Transfer requires StoreDir (the store is the donor pool)")
		}
		if cfg.TransferProbes < 0 || cfg.TransferBudget < 0 || cfg.TransferTol < 0 {
			return nil, fmt.Errorf("service: transfer options must be non-negative")
		}
	}
	o := options{
		cacheSize:    cfg.CacheSize,
		batchWindow:  cfg.BatchWindow,
		precision:    cfg.Precision,
		quotaSlots:   cfg.QuotaSlots,
		quotaWeights: cfg.QuotaWeights,
		transfer:     cfg.Transfer,
		transferCfg:  transfer.Config{Probes: cfg.TransferProbes, Budget: cfg.TransferBudget, Tol: cfg.TransferTol},
	}
	if o.cacheSize <= 0 {
		o.cacheSize = DefaultCacheSize
	}
	if o.batchWindow == 0 {
		o.batchWindow = DefaultBatchWindow
	}
	if o.precision == (core.Precision{}) {
		o.precision = DefaultSweepPrecision
	}
	if o.transferCfg.Probes == 0 {
		o.transferCfg.Probes = DefaultTransferProbes
	}
	if o.transferCfg.Tol == 0 {
		o.transferCfg.Tol = DefaultTransferTol
	}
	nshards := max(cfg.Shards, 1)
	s := &Server{pool: pool.New(cfg.Workers), ring: ring.New(0), options: o}
	if cfg.StoreDir != "" {
		st, err := modelstore.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	s.shards = make([]*shard, nshards)
	for i := range s.shards {
		s.ring.Add(shardName(i))
		s.shards[i] = s.newShard(i)
	}
	if s.store != nil {
		s.preload(nil)
	}
	return s, nil
}

// preload warms the shard caches from the disk store, routing every entry
// to the shard its tenant lives on — all shards at start, or only the
// given revived one. Corrupt files are only counted, at start — the torn
// entries re-sweep (and heal) lazily on first use.
func (s *Server) preload(only *shard) {
	entries, corrupt, err := s.store.Load()
	if err != nil {
		return
	}
	if only == nil {
		s.front.preloadCorrupt.Add(int64(len(corrupt)))
	}
	for _, ent := range entries {
		if sh, err := s.shardFor(ent.Key.Tenant); err == nil && (only == nil || sh == only) {
			sh.preloadEntry(ent)
		}
	}
}

// Close releases the server: waiters on in-flight cache fills and batches
// of every shard are unblocked with a shutdown error. Call after draining
// the HTTP listener (http.Server.Shutdown) so in-flight requests complete
// first.
func (s *Server) Close() {
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	for _, sh := range s.shards {
		sh.cancel()
	}
}

// Shards returns the number of shards the server hosts.
func (s *Server) Shards() int {
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	return len(s.shards)
}

// shardFor routes a tenant to its live shard through the ring.
func (s *Server) shardFor(tenant string) (*shard, error) {
	name, ok := s.ring.Lookup(tenant)
	if !ok {
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "no live shard"}
	}
	i, err := strconv.Atoi(name)
	if err != nil {
		return nil, fmt.Errorf("service: malformed shard name %q", name)
	}
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("service: shard %d out of range", i)
	}
	return s.shards[i], nil
}

// KillShard is the failure-injection surface the failover tests (and
// operators rehearsing one) use: it marks shard i dead on the ring — its
// tenants fail over to their clockwise successors on the next request —
// and cancels the shard, unblocking its in-flight fills and batches with a
// shutdown error. The dead shard's counters remain visible in /stats.
func (s *Server) KillShard(i int) error {
	s.shardMu.RLock()
	defer s.shardMu.RUnlock()
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("service: shard %d out of range [0, %d)", i, len(s.shards))
	}
	s.ring.SetLive(shardName(i), false)
	s.shards[i].cancel()
	return nil
}

// ReviveShard replaces shard i with a fresh one and marks it live: because
// a dead member keeps its ring positions, every tenant that failed over
// returns to exactly its original shard. The replacement warms itself from
// the shared store (owned tenants only), so a rejoin costs zero re-sweeps;
// the replaced shard's counters are retired into the merged /stats view.
func (s *Server) ReviveShard(i int) error {
	s.shardMu.Lock()
	if i < 0 || i >= len(s.shards) {
		s.shardMu.Unlock()
		return fmt.Errorf("service: shard %d out of range [0, %d)", i, len(s.shards))
	}
	old := s.shards[i]
	sh := s.newShard(i)
	s.shards[i] = sh
	s.shardMu.Unlock()

	old.cancel()
	s.front.retire(old.stats.counters())
	s.ring.SetLive(shardName(i), true)

	if s.store != nil {
		s.preload(sh)
	}
	return nil
}

// snapshot assembles the /stats view: front-door counters, the per-shard
// breakdown, and the merged sums (retired shards included).
func (s *Server) snapshot() Snapshot {
	var snap Snapshot
	snap.Requests = s.front.requests.Load()
	snap.Errors = s.front.errors.Load()
	if n := s.front.latencyN.Load(); n > 0 {
		snap.AvgLatencyMicros = float64(s.front.latencyT.Load()) / float64(n) / 1e3
	}
	s.shardMu.RLock()
	shards := make([]*shard, len(s.shards))
	copy(shards, s.shards)
	s.shardMu.RUnlock()
	for i, sh := range shards {
		ss := ShardSnapshot{
			Shard:         i,
			Live:          s.ring.Alive(shardName(i)),
			ShardCounters: sh.stats.counters(),
		}
		sh.mu.Lock()
		ss.Tenants = len(sh.tenants)
		for _, tc := range sh.tenants {
			ss.CacheEntries += tc.order.Len()
		}
		sh.mu.Unlock()
		snap.ShardCounters.add(ss.ShardCounters)
		snap.Tenants += ss.Tenants
		snap.CacheEntries += ss.CacheEntries
		snap.Shards = append(snap.Shards, ss)
	}
	s.front.retiredMu.Lock()
	snap.ShardCounters.add(s.front.retired)
	s.front.retiredMu.Unlock()
	snap.StoreCorrupt += s.front.preloadCorrupt.Load()
	snap.Workers = s.pool.Workers()
	if s.store != nil {
		if st, err := s.store.Stats(); err == nil {
			snap.Store = st
		}
	}
	return snap
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	if r.Method != http.MethodGet {
		return &httpError{status: http.StatusMethodNotAllowed, msg: "GET required"}
	}
	return writeJSON(w, s.snapshot())
}
