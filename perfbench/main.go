// Command perfbench is the request-path benchmark of the partition
// service. It runs service.New(...).Handler() behind a loopback listener,
// drives it with a seeded closed loop of two clients, checks every answer
// against a replay through the library, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as its last output line.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 10 --trace 0
//
// README.md describes the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fupermod/internal/core"
	"fupermod/internal/service"
	"fupermod/internal/service/modelstore"
)

// setupRepeats is how many back-to-back server starts setup_s is the
// median of: a start takes milliseconds, so a few samples are mostly noise.
const setupRepeats = 21

// donorPoolSeed seeds the transfer donor pool.
const donorPoolSeed = 1

// maxCostSamples bounds the /v1/measure calls bench_cost_s averages over.
// It covers every cold fill of a cold-transfer run (about 1300): a
// fallback costs about three transfers, and the few hundred fills a
// smaller bound sampled moved bench_cost_s by 7% between seeds.
const maxCostSamples = 2048

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type provenance struct {
	GitRev     string `json:"git_rev"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: warm-mix, cold-sweep or cold-transfer")
	seed := fs.Int64("seed", 1, "seed every generated request and model key derives from")
	seconds := fs.Int("seconds", 10, "seconds of timed load")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	gitRev := fs.String("git-rev", "unknown", "revision the benchmark was built from")
	workDir := fs.String("work-dir", "", "directory for the run's stores and span file (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *workDir == "" || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload warm-mix|cold-sweep|cold-transfer, --seconds >= 1, --trace 0|1 and --work-dir\n")
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	prov := provenance{
		GitRev: *gitRev, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients, Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
	}
	provJSON, _ := json.Marshal(prov) // plain strings and numbers always encode
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)

	timed := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		o, err := runPhase(w, *seed, timed, false, *workDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res = result{Metrics: endToEnd(w, o, stdout)}
		res.count(o, stderr)
	} else {
		// Same seeded requests twice, from identical set-ups: untraced for
		// the reference latency and the counters, then traced.
		u, err := runPhase(w, *seed, timed/2, false, *workDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		t, err := runPhase(w, *seed, timed/2, true, *workDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res = result{Metrics: perLayer(w, u, t)}
		res.count(u, stderr)
		res.count(t, stderr)
		path := filepath.Join(*workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, prov, t.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(t.spans), path)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// maxReported bounds the failures a phase names on standard error.
const maxReported = 20

// count adds a phase's timed requests and its failures — requests that
// failed, answers the replay disagrees with, and failed gates — to r.
func (r *result) count(o *outcome, stderr io.Writer) {
	r.Attempted += len(o.recs)
	r.Failed += len(o.problems)
	for i, p := range o.problems {
		if i == maxReported {
			fmt.Fprintf(stderr, "perfbench: FAIL ... and %d more\n", len(o.problems)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", p)
	}
}

// outcome is everything one phase measured.
type outcome struct {
	setups        []float64 // seconds per server start, /healthz included
	recs          []record  // the timed requests, in stream order
	start         time.Time // when the timed phase began
	dur           time.Duration
	before, after service.Snapshot
	statsMs       []float64
	benchCost     []float64 // simulated device-seconds per measured model
	spans         []span
	problems      []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runPhase prepares the workload's store, starts the server, warms it,
// runs the timed closed loop and checks every answer. An error means the
// phase could not run at all; wrong answers land in outcome.problems.
func runPhase(w workload, seed int64, dur time.Duration, traced bool, workDir string) (*outcome, error) {
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	// The file system may discard freed blocks at its next journal commit;
	// sync so a run's deleted store costs this run, not the next one's
	// timed phase.
	defer syscall.Sync()
	defer os.RemoveAll(dir)
	storeDir, mirrorDir := filepath.Join(dir, "store"), filepath.Join(dir, "mirror")
	stores := []string{storeDir}
	if traced {
		stores = append(stores, mirrorDir)
	}
	if err := prepareStores(w, seed, stores); err != nil {
		return nil, fmt.Errorf("preparing the store: %w", err)
	}

	o := &outcome{}
	cfg := service.Config{Shards: 2, StoreDir: storeDir, Transfer: w.transfer}
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		runtime.GC() // leave earlier garbage out of the timed start
		start := time.Now()
		srv, err = startServer(cfg)
		if err == nil {
			err = srv.healthy()
		}
		if err != nil {
			if srv != nil {
				srv.stop()
			}
			return nil, fmt.Errorf("starting the server: %w", err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	// Untraced, the replay reads the server's store once and keeps its
	// own models; traced, it works against a mirror of the store.
	epoch := time.Now()
	var ids atomic.Int64
	var mirror *modelstore.Store
	var setupTracer *tracer
	st, err := modelstore.Open(storeDir)
	if traced && err == nil {
		mirror, err = modelstore.Open(mirrorDir)
		st = mirror
		setupTracer = newTracer(epoch, &ids)
		setupTracer.forRequest(-1)
	}
	if err != nil {
		return nil, err
	}
	rp := newReplayer(w.transfer, mirror)
	if err := rp.preload(setupTracer, st); err != nil {
		return nil, fmt.Errorf("replaying the preload: %w", err)
	}

	// Warm-up: every reused key under both model kinds, then a short run
	// of the mix, all checked like the timed requests. Their replay spans
	// count as set-up: warm-mix fits its Akima models only here.
	var warm []record
	for _, rq := range warmRequests(w, seed) {
		rec := record{req: rq}
		rec.status, rec.body, rec.err = srv.do(http.MethodPost, rq.Endpoint, rq.Body)
		warm = append(warm, rec)
	}
	warm = append(warm, srv.closedLoop(newStream(w, seed, tagWarmup), func(i int) bool { return i < w.warmups }, nil, nil)...)
	checkAll(rp, setupTracer, warm)
	for i := range warm {
		if warm[i].checkErr != nil {
			o.fail("warm-up request %d %s: %v", i, warm[i].req.Endpoint, warm[i].checkErr)
		}
	}

	var took time.Duration
	if o.before, took, err = srv.stats(); err != nil {
		return nil, err
	}
	o.statsMs = append(o.statsMs, ms(took))

	var tracers []*tracer
	var onReply func(t *tracer, rec *record)
	if traced {
		tracers = []*tracer{newTracer(epoch, &ids), newTracer(epoch, &ids)}
		onReply = func(t *tracer, rec *record) { rec.checkErr = verify(rp, t, rec) }
	}
	runtime.GC()
	syscall.Sync() // write back the set-up's store files before timing
	o.start, o.dur = time.Now(), dur
	deadline := o.start.Add(dur)
	o.recs = srv.closedLoop(newStream(w, seed, tagTimed), func(int) bool { return time.Now().Before(deadline) }, tracers, onReply)

	if o.after, took, err = srv.stats(); err != nil {
		return nil, err
	}
	o.statsMs = append(o.statsMs, ms(took))
	if err := o.measureCost(w, seed, srv); err != nil {
		return nil, err
	}

	if !traced {
		checkAll(rp, nil, o.recs)
	}
	var coldKeys int64
	for i := range o.recs {
		rec := &o.recs[i]
		if rec.checkErr != nil {
			o.fail("request %d %s: %v", i, rec.req.Endpoint, rec.checkErr)
		} else {
			coldKeys += int64(len(rec.req.Cold))
		}
	}
	o.gates(w, coldKeys)

	if traced {
		o.spans = append(o.spans, setupTracer.spans...)
		for _, t := range tracers {
			o.spans = append(o.spans, t.spans...)
		}
	}
	return o, nil
}

// checkAll checks records after the fact: serially when traced (a tracer
// belongs to one goroutine), else on as many goroutines as the load had
// clients.
func checkAll(rp *replayer, t *tracer, recs []record) {
	if t != nil {
		for i := range recs {
			recs[i].checkErr = verify(rp, t, &recs[i])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(recs); i = int(next.Add(1) - 1) {
				recs[i].checkErr = verify(rp, nil, &recs[i])
			}
		}()
	}
	wg.Wait()
}

// verify checks one answered request: a 200 whose body the replay agrees
// with.
func verify(rp *replayer, t *tracer, rec *record) error {
	if rec.err != nil {
		return rec.err
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.status, rec.body)
	}
	return rp.check(t, rec.req, rec.body)
}

// gates checks the /stats deltas of the timed phase against what the
// requests imply.
func (o *outcome) gates(w workload, coldKeys int64) {
	d := func(f func(service.Snapshot) int64) int64 { return f(o.after) - f(o.before) }
	sweeps := d(func(s service.Snapshot) int64 { return s.Sweeps })
	fills := d(func(s service.Snapshot) int64 { return s.TransferRuns + s.TransferFallbacks })
	switch {
	case !w.cold && sweeps != 0:
		o.fail("gate: %d sweeps on the warm request path, want 0", sweeps)
	case w.transfer && fills != coldKeys:
		o.fail("gate: %d transfer runs + fallbacks for %d cold keys", fills, coldKeys)
	case w.cold && !w.transfer && sweeps != coldKeys:
		o.fail("gate: %d sweeps for %d cold keys", sweeps, coldKeys)
	}
}

// measureCost fetches, through /v1/measure, the points of the models the
// workload paid to measure — the stored tenant keys of warm-mix, the cold
// keys of the timed phase otherwise — and records each one's benchmark
// cost. Synthesized transfer points have Reps 0 and cost nothing.
func (o *outcome) measureCost(w workload, seed int64, srv *server) error {
	var keys []service.MeasureRequest
	if !w.cold {
		for t := 0; t < w.tenants; t++ {
			for j := 0; j < w.devices; j++ {
				keys = append(keys, service.MeasureRequest{Tenant: tenantName(w, t), Device: tenantDevice(seed, t, j), Grid: grid})
			}
		}
	}
	for _, rec := range o.recs {
		if rec.status == http.StatusOK {
			keys = append(keys, rec.req.Cold...)
		}
	}
	// Keys cycle through the presets, so a stride sharing a factor with
	// the cycle would sample only some presets.
	stride := (len(keys) + maxCostSamples - 1) / maxCostSamples
	for gcd(stride, len(presets)) != 1 {
		stride++
	}
	for i := 0; i < len(keys); i += stride {
		body, err := json.Marshal(keys[i])
		if err != nil {
			return err
		}
		status, out, err := srv.do(http.MethodPost, "/v1/measure", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			o.fail("/v1/measure %s: status %d: %s", body, status, out)
			continue
		}
		var resp service.MeasureResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return err
		}
		pts := make([]core.Point, len(resp.Points))
		for j, p := range resp.Points {
			pts[j] = core.Point{D: p.D, Time: p.TimeS, Reps: p.Reps, CI: p.CI}
		}
		o.benchCost = append(o.benchCost, core.BenchmarkCost(pts))
	}
	return nil
}

// prepareStores writes the workload's starting store into every directory:
// full sweeps of the tenant keys, and the transfer donor pool.
func prepareStores(w workload, seed int64, dirs []string) error {
	var stores []*modelstore.Store
	for _, d := range dirs {
		st, err := modelstore.Open(d)
		if err != nil {
			return err
		}
		stores = append(stores, st)
	}
	sizes := core.LogSizes(grid.Lo, grid.Hi, grid.N)
	put := func(tenant string, dev service.DeviceSpec) error {
		k, err := virtualKernel(dev)
		if err != nil {
			return err
		}
		pts, err := core.Sweep(k, sizes, service.DefaultSweepPrecision)
		if err != nil {
			return err
		}
		for _, st := range stores {
			if err := st.Put(storeKey(tenant, dev), k.Name(), pts); err != nil {
				return err
			}
		}
		return nil
	}
	for t := 0; t < w.tenants; t++ {
		for j := 0; j < w.devices; j++ {
			if err := put(tenantName(w, t), tenantDevice(seed, t, j)); err != nil {
				return err
			}
		}
	}
	// The donor pool is a fixture, the same for every seed: which curves
	// it holds sets how many probes a transfer needs, and a pool drawn per
	// seed moved bench_cost_s by a third between seeds.
	for i := 0; i < w.donors; i++ {
		dev := service.DeviceSpec{Preset: presets[i%len(presets)], Seed: derive(donorPoolSeed, tagDonor, int64(i)), Noise: noise}
		if err := put(fmt.Sprintf("d%02d", i%20), dev); err != nil {
			return err
		}
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the timed requests' latencies in ms, a failed or
// wrong answer counting as +Inf.
func latencies(o *outcome) []float64 {
	out := make([]float64, len(o.recs))
	for i, rec := range o.recs {
		out[i] = ms(rec.lat)
		if rec.checkErr != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// finite keeps a metric valid JSON: +Inf (a percentile landing on failed
// requests) becomes the largest float, NaN (no samples at all) 0.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// endToEnd computes the gated user-visible metrics of an untraced phase.
// The timed phase is cut into the workload's windows by request start;
// each latency percentile and the throughput are taken per window and the
// median over windows is reported, so one host stall moves one window,
// not the run. The p90 and tail are printed but not gated: on a shared
// host they follow the host's load more than the program (README.md).
func endToEnd(w workload, o *outcome, stdout io.Writer) map[string]metric {
	k := 1
	if w.window > 0 {
		k = max(1, int(o.dur/w.window))
	}
	span := o.dur / time.Duration(k)
	lat := latencies(o)
	wins := make([][]float64, k)
	for i, rec := range o.recs {
		j := int(rec.start.Sub(o.start) / span)
		if j >= k {
			j = k - 1
		}
		wins[j] = append(wins[j], lat[i])
	}
	var p50s, p90s, tails, rps []float64
	for j, win := range wins {
		ok := 0
		for _, l := range win {
			if !math.IsInf(l, 1) {
				ok++
			}
		}
		p50, p90, tail := percentile(win, 0.50), percentile(win, 0.90), percentile(win, w.tail)
		fmt.Fprintf(stdout, "window %d: %d requests, p50 %.4f ms, p90 %.4f ms, p%g %.4f ms with %d beyond\n",
			j, len(win), p50.Value, p90.Value, 100*tail.Q, tail.Value, tail.Beyond)
		if !tail.Resolved {
			fmt.Fprintf(stdout, "warning: window %d holds only %d samples beyond p%g\n", j, tail.Beyond, 100*tail.Q)
		}
		p50s, p90s, tails = append(p50s, p50.Value), append(p90s, p90.Value), append(tails, tail.Value)
		rps = append(rps, float64(ok)/span.Seconds())
	}
	fmt.Fprintf(stdout, "ungated: median over %d windows of p90 %.4f ms and p%g %.4f ms\n",
		k, finite(median(p90s)), 100*w.tail, finite(median(tails)))
	return map[string]metric{
		"setup_s":        {median(o.setups), "s"},
		"throughput_rps": {median(rps), "1/s"},
		"latency_p50_ms": {finite(median(p50s)), "ms"},
		"bench_cost_s":   {mean(o.benchCost), "s"},
	}
}
