package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/partition"
	"fupermod/internal/pool"
)

// adaptiveWindow adjusts the batch window to the observed partition
// traffic: under load (requests arriving within a couple of windows of
// each other) the full window is worth waiting out because followers will
// join; when traffic is idle, waiting only adds latency to a request that
// will batch with nobody, so the window shrinks to zero. The controller
// tracks an exponentially weighted moving average of inter-arrival gaps:
//
//	ewma ≤ 2·max → full window (busy)
//	ewma ≥ 4·max → no window  (idle)
//	in between   → linear ramp
//
// A server that has seen no partition traffic yet counts as busy — the
// conservative default keeps batching effective from the first burst.
type adaptiveWindow struct {
	mu   sync.Mutex
	max  time.Duration // configured window (the upper bound)
	ewma time.Duration // smoothed inter-arrival gap; 0 = busy
	last time.Time     // previous arrival; zero = none yet
}

// observe records one partition-request arrival and returns the batch
// window that request should wait, in [0, max].
func (a *adaptiveWindow) observe(now time.Time) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.last.IsZero() {
		gap := now.Sub(a.last)
		if gap < 0 {
			gap = 0
		}
		a.ewma = (a.ewma + gap) / 2
	}
	a.last = now
	busy, idle := 2*a.max, 4*a.max
	switch {
	case a.ewma <= busy:
		return a.max
	case a.ewma >= idle:
		return 0
	default:
		return time.Duration(float64(a.max) * float64(idle-a.ewma) / float64(idle-busy))
	}
}

// Join-gate policy: the number of consecutive batches that must close
// without a joiner before leaders stop waiting the window, and the probe
// period — every gateProbeEvery-th leader a closed gate turns away waits
// the window anyway, so traffic that starts batching again is noticed.
const (
	gateEmptyLeaders = 4
	gateProbeEvery   = 16
)

// joinGate decides whether a batch leader's window is worth waiting from
// the joins actually observed; adaptiveWindow only looks at how often
// requests arrive. Back-to-back distinct requests are busy by the
// inter-arrival rule, yet nobody ever joins them, so waiting only adds
// latency. The gate closes after gateEmptyLeaders consecutive batches end
// with no joiner, lets every gateProbeEvery-th turned-away leader wait as
// a probe, and reopens at once on any joiner. A fresh gate is open. It is
// guarded by the shard's batchMu.
type joinGate struct {
	empty int // consecutive batches closed with no joiner (saturating)
	skips int // leaders turned away since the last probe
}

// admit reports whether a new batch leader should wait its window.
func (g *joinGate) admit() bool {
	if g.empty < gateEmptyLeaders {
		return true
	}
	g.skips = (g.skips + 1) % gateProbeEvery
	return g.skips == 0
}

// join records a follower joining a batch: the gate reopens.
func (g *joinGate) join() { g.empty, g.skips = 0, 0 }

// closed records a batch leaving the registry with its joiner count.
func (g *joinGate) closed(joined int) {
	if joined == 0 && g.empty < gateEmptyLeaders {
		g.empty++
	}
}

// batchCall is one in-flight batched operation shared by every request
// with the same batch key. done is closed after the run; val and err must
// only be read afterwards. The value is shared read-only — each request
// marshals its own response from it. joined counts the followers; it is
// guarded by the shard's batchMu.
type batchCall struct {
	done   chan struct{}
	val    any
	err    error
	joined int
}

// BatchKey fingerprints everything that determines a partition result:
// the operation, the tenant, the resolved model cache keys in device
// order, the algorithm, and the problem size. Requests agreeing on all of
// these are answered by a single solver call. op keeps the partition key
// space disjoint from the other batched endpoints (dynpart, balance,
// rebalance and matpart build their own op-prefixed keys).
// It is exported so the perf harness (internal/bench) can track its cost —
// the key is computed on every batched request.
func BatchKey(op, tenant string, keys []ModelKey, algorithm string, D int, commTag string) string {
	var b strings.Builder
	b.Grow(64 + len(op) + len(tenant) + len(algorithm) + len(commTag) + 48*len(keys))
	b.WriteString(op)
	b.WriteByte('|')
	b.WriteString(tenant)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k.String())
	}
	b.WriteByte('|')
	b.WriteString(algorithm)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(D))
	// Comm-aware and compute-only requests over the same models solve
	// different balance problems and must never share a batch.
	b.WriteByte('|')
	b.WriteString(commTag)
	return b.String()
}

// batched coalesces identical expensive operations into a single run (the
// serving-layer analogue of request batching in an inference stack:
// identical work admitted together is computed once). The first request
// for a key becomes the batch leader: it registers the batch, waits out
// the window while followers join — unless the adaptive window says
// traffic is idle or the join gate says nobody has been joining — then
// invokes run exactly once and publishes the result to everyone. Every
// leader stays registered until run returns, so identical requests that
// meet a leader mid-solve, even one that skipped the window, join it at
// no added wait. Partition solves, dynamic-partition runs, balance and
// rebalance replays and matpart arrangements all route through here with
// disjoint key spaces.
func (sh *shard) batched(key string, run func() (any, error)) (val any, err error) {
	if sh.batchWindow <= 0 {
		return run()
	}
	window := sh.window.observe(time.Now())
	sh.batchMu.Lock()
	if call, ok := sh.batches[key]; ok {
		call.joined++
		sh.gate.join()
		sh.batchMu.Unlock()
		sh.stats.batchJoined.Add(1)
		select {
		case <-call.done:
			return call.val, call.err
		case <-sh.ctx.Done():
			return nil, sh.ctx.Err()
		}
	}
	wait := window > 0 && sh.gate.admit()
	call := &batchCall{done: make(chan struct{})}
	sh.batches[key] = call
	sh.batchMu.Unlock()

	// Deregister before publishing, however the leader exits: later
	// arrivals start a fresh batch, and followers already joined share
	// this result. A recovered panic becomes the batch's error, so
	// joiners wake instead of hanging and the key is never poisoned.
	defer func() {
		if r := recover(); r != nil {
			call.val, call.err = nil, fmt.Errorf("service: batch leader panicked: %v", r)
		}
		sh.batchMu.Lock()
		delete(sh.batches, key)
		sh.gate.closed(call.joined)
		sh.batchMu.Unlock()
		close(call.done)
		val, err = call.val, call.err
	}()
	if wait {
		timer := time.NewTimer(window)
		select {
		case <-timer.C:
		case <-sh.ctx.Done():
		}
		timer.Stop()
	} else {
		sh.stats.batchWindowSkips.Add(1)
	}
	call.val, call.err = run()
	return call.val, call.err
}

// solvePartition answers one partition request through the batcher.
func (sh *shard) solvePartition(tenant string, keys []ModelKey, models []core.Model, algorithm string, D int, commTag string) (*core.Dist, error) {
	key := BatchKey("part", tenant, keys, algorithm, D, commTag)
	v, err := sh.batched(key, func() (any, error) {
		return sh.runSolve(models, algorithm, D)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Dist), nil
}

// runSolve executes one partitioner call on the shared pool.
func (sh *shard) runSolve(models []core.Model, algorithm string, D int) (*core.Dist, error) {
	p, err := partition.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	var dist *core.Dist
	err = pool.Do(sh.ctx, sh.pool, func(context.Context) error {
		sh.stats.batchSolves.Add(1)
		var serr error
		dist, serr = p.Partition(models, D)
		return serr
	})
	return dist, err
}
