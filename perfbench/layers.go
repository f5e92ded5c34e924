package main

import (
	"encoding/json"

	"fupermod/internal/service"
)

// perLayer computes the per-layer metrics from an untraced phase u and a
// traced phase t of workload w that sent the same requests from the same
// set-up. Span
// timings come from t; counters come from u's /stats deltas, because the
// replay between requests thins the traced phase's load and with it the
// batching and caching behaviour.
func perLayer(w workload, u, t *outcome) map[string]metric {
	durs := make(map[string][]float64) // span name (+ "/" + attr) → ms
	type pair struct{ request, replay float64 }
	reqs := make(map[int]*pair)
	for _, s := range t.spans {
		d := ms(s.dur())
		durs[s.Name] = append(durs[s.Name], d)
		if s.Attr != "" {
			durs[s.Name+"/"+s.Attr] = append(durs[s.Name+"/"+s.Attr], d)
		}
		if s.Parent != 0 || s.Req < 0 {
			continue
		}
		p := reqs[s.Req]
		if p == nil {
			p = &pair{}
			reqs[s.Req] = p
		}
		if s.Name == "request" {
			p.request = d
		} else {
			p.replay = d
		}
	}
	var overhead []float64
	for _, p := range reqs {
		overhead = append(overhead, p.request-p.replay)
	}
	p50ms := func(name string) metric { return metric{median(durs[name]), "ms"} }
	p50us := func(name string) metric { return metric{1e3 * median(durs[name]), "us"} }
	count := func(v int64) metric { return metric{float64(v), "count"} }
	delta := func(f func(service.ShardCounters) int64) int64 {
		return f(u.after.ShardCounters) - f(u.before.ShardCounters)
	}

	hits := delta(func(c service.ShardCounters) int64 { return c.CacheHits })
	lookups := hits + delta(func(c service.ShardCounters) int64 { return c.CacheMisses + c.CacheCoalesced })
	batched := int64(len(u.recs)) // every timed endpoint goes through the batcher
	runs := delta(func(c service.ShardCounters) int64 { return c.TransferRuns })
	fallbacks := delta(func(c service.ShardCounters) int64 { return c.TransferFallbacks })

	lat := latencies(u)
	untraced := percentile(lat, 0.5).Value
	untracedP90 := percentile(lat, 0.9).Value
	untracedTail := percentile(lat, w.tail).Value
	traced := percentile(latencies(t), 0.5).Value
	replay := median(durs["replay"])
	over := median(overhead)

	return map[string]metric{
		"service.overhead_p50_ms":           {over, "ms"},
		"service.endpoint.partition_p50_ms": p50ms("request//v1/partition"),
		"service.endpoint.dynpart_p50_ms":   p50ms("request//v1/dynpart"),
		"service.endpoint.matpart_p50_ms":   p50ms("request//v1/matpart"),
		"service.endpoint.balance_p50_ms":   p50ms("request//v1/balance"),
		"service.codec_encode_us":           p50us("service.EncodeJSON"),
		"service.codec_decode_us":           p50us("service.DecodeJSON"),
		"service.cache_hit_ratio":           {ratio(hits, lookups), "ratio"},
		"service.cache_coalesced":           count(delta(func(c service.ShardCounters) int64 { return c.CacheCoalesced })),
		"service.cache_evictions":           count(delta(func(c service.ShardCounters) int64 { return c.CacheEvictions })),
		"service.batch_join_ratio":          {ratio(delta(func(c service.ShardCounters) int64 { return c.BatchJoined }), batched), "ratio"},
		"service.batch_skip_ratio":          {ratio(delta(func(c service.ShardCounters) int64 { return c.BatchWindowSkips }), batched), "ratio"},
		"service.stats_ms":                  {median(append(append([]float64(nil), u.statsMs...), t.statsMs...)), "ms"},
		"core.sweep_ms":                     p50ms("core.Sweep"),
		"core.sweeps":                       count(delta(func(c service.ShardCounters) int64 { return c.Sweeps })),
		"model.fit_piecewise_us":            p50us("model.fit/fpm-piecewise"),
		"model.fit_akima_us":                p50us("model.fit/fpm-akima"),
		"modelstore.put_ms":                 p50ms("modelstore.Put"),
		"modelstore.load_ms":                p50ms("modelstore.Load"),
		"modelstore.entries":                count(u.before.Store.Entries),
		"modelstore.donorpool_ms":           p50ms("modelstore.DonorPool"),
		"transfer.acquire_ms":               p50ms("transfer.Acquire"),
		"transfer.probes_per_fill":          {ratio(delta(func(c service.ShardCounters) int64 { return c.TransferProbes }), runs+fallbacks), "count"},
		"transfer.fallback_ratio":           {ratio(fallbacks, runs+fallbacks), "ratio"},
		"partition.geometric_us":            p50us("partition.Partition/geometric"),
		"partition.numerical_us":            p50us("partition.Partition/numerical"),
		"dynamic.dynpart_ms":                p50ms("dynamic.PartitionDynamic"),
		"dynamic.dynpart_iters":             {dynpartIters(u), "count"},
		"dynamic.balance_us":                p50us("dynamic.Balancer"),
		"matpart.arrange_us":                p50us("matpart.Partition"),
		"matpart.grid_us":                   p50us("matpart.PartitionGrid"),
		"trace.untraced_p50_ms":             {finite(untraced), "ms"},
		"trace.untraced_p90_ms":             {finite(untracedP90), "ms"},
		"trace.untraced_tail_ms":            {finite(untracedTail), "ms"},
		"trace.traced_p50_ms":               {finite(traced), "ms"},
		"trace.overhead_ms":                 {finite(traced - untraced), "ms"},
		"trace.replay_p50_ms":               {replay, "ms"},
		"trace.accounting_gap_ms":           {finite(untraced - replay - over), "ms"},
	}
}

// dynpartIters is the mean iteration count of the served dynpart runs.
func dynpartIters(o *outcome) float64 {
	var iters []float64
	for _, rec := range o.recs {
		if rec.req.Endpoint != "/v1/dynpart" || rec.checkErr != nil {
			continue
		}
		var resp service.DynpartResponse
		if json.Unmarshal(rec.body, &resp) == nil {
			iters = append(iters, float64(len(resp.Steps)))
		}
	}
	return mean(iters)
}
