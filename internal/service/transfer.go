package service

import (
	"context"
	"fmt"

	"fupermod/internal/core"
	"fupermod/internal/pool"
	"fupermod/internal/service/modelstore"
	"fupermod/internal/transfer"
)

// acquireKey is the transfer-enabled counterpart of sweepKey: it runs
// inside the store's single-flight fill for a cold key and tries to
// warm-start the model from the store's nearest-fingerprint donor curve
// before paying for a full sweep.
//
// The fallback contract matters more than the happy path: whenever
// transfer declines (empty donor pool, residual gate, divergence), the
// fill runs sweepKey on a *fresh* kernel — not the one the probes touched.
// A virtual device's noise meter draws perturbations in measurement order,
// so reusing the probed kernel would produce a sweep that differs from a
// never-transferred server's; the fresh kernel makes the fallback
// byte-identical to running with -transfer off, which the edge-case tests
// assert end to end.
func (sh *shard) acquireKey(tenant string, key ModelKey, sizes []int, sk modelstore.Key) (modelstore.Swept, error) {
	donors, err := sh.store.DonorPool(sk)
	if err != nil || len(donors) == 0 {
		// An unreadable donor pool is a reason to not transfer, never a
		// reason to fail the fill.
		sh.stats.transferFallbacks.Add(1)
		return sh.sweepKey(tenant, key, sizes)
	}

	dev, k, err := sh.kernelFor(tenant, key)
	if err != nil {
		return modelstore.Swept{}, err
	}
	var res *transfer.Result
	err = pool.Do(sh.ctx, sh.pool, func(context.Context) error {
		prober := func(d int) (core.Point, error) {
			sh.stats.transferProbes.Add(1)
			return core.Benchmark(k, d, sh.precision)
		}
		var aerr error
		res, aerr = transfer.Acquire(sizes, prober, transfer.Pool(donors, 0), sh.transferCfg)
		return aerr
	})
	if err != nil {
		return modelstore.Swept{}, err
	}
	if res.Fallback != "" {
		sh.stats.transferFallbacks.Add(1)
		return sh.sweepKey(tenant, key, sizes)
	}
	sh.stats.transferRuns.Add(1)
	prov := fmt.Sprintf("donor=%s scale=%.6g probes=%d/%d maxdiff=%.3g",
		res.Donor, res.Scale, res.Measured, len(sizes), res.MaxDisagree)
	return finitePoints(modelstore.Swept{Kernel: dev.Name(), Points: res.Points, Transfer: prov})
}
