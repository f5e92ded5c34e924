// Command fupermod-sim runs the paper's applications on a simulated
// heterogeneous platform, and inspects the machine files that describe
// one. Each subcommand is a whole in-process pipeline: benchmark the
// devices, build their models, partition, and execute on the virtual-time
// runtime.
//
// Usage:
//
//	fupermod-sim matmul  -cluster hcl -grid 128 -seed 7 [-layout]
//	fupermod-sim jacobi  -n 20000 -iters 9 -cluster jacobi [-gantt]
//	fupermod-sim stencil -cells 40000 -steps 25 -machine examples/machines/two-node.machine
//	fupermod-sim dynpart -D 30000 -cluster hcl [-bands]
//	fupermod-sim machine [-probes 1000,10000,50000] examples/machines/two-node.machine
//
// The application subcommands share -cluster, -machine and -seed; the
// -cluster default is hcl for matmul and dynpart, jacobi for jacobi and
// stencil.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"fupermod/internal/apps"
	"fupermod/internal/comm"
	"fupermod/internal/config"
	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/experiments"
	"fupermod/internal/kernels"
	"fupermod/internal/matpart"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
	"fupermod/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "fupermod-sim:", err)
		os.Exit(1)
	}
}

// commands lists the subcommands in usage order.
var commands = []struct {
	name string
	run  func(fs *flag.FlagSet, args []string, stdout io.Writer) error
}{
	{"matmul", runMatmul},
	{"jacobi", runJacobi},
	{"stencil", runStencil},
	{"dynpart", runDynpart},
	{"machine", runMachine},
}

// run dispatches to the subcommand args[0] names. Flag errors and -h
// usage go to stderr, so they never mix with the data on stdout.
func run(args []string, stdout, stderr io.Writer) error {
	names := make([]string, len(commands))
	for i, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			fs := flag.NewFlagSet("fupermod-sim "+c.name, flag.ContinueOnError)
			fs.SetOutput(stderr)
			return c.run(fs, args[1:], stdout)
		}
		names[i] = c.name
	}
	if len(args) == 0 {
		return fmt.Errorf("missing command (want %s)", strings.Join(names, " | "))
	}
	return fmt.Errorf("unknown command %q (want %s)", args[0], strings.Join(names, " | "))
}

// simPlatform is the platform an application subcommand runs on.
type simPlatform struct {
	name string // the machine file, or else the cluster preset
	devs []platform.Device
	net  comm.Network
	seed int64
}

// parsePlatform adds the -cluster (default cluster), -machine and -seed
// flags the application subcommands share to fs, parses args, and loads
// the platform the flags name.
func parsePlatform(fs *flag.FlagSet, args []string, cluster string) (*simPlatform, error) {
	fs.StringVar(&cluster, "cluster", cluster, "cluster preset: hcl | jacobi")
	machine := fs.String("machine", "", "machine file describing the platform (overrides -cluster, hierarchical network)")
	seed := fs.Int64("seed", 7, "noise seed")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	devs, net, err := config.LoadPlatform(*machine, cluster)
	if err != nil {
		return nil, err
	}
	name := cluster
	if *machine != "" {
		name = *machine
	}
	return &simPlatform{name: name, devs: devs, net: net, seed: *seed}, nil
}

// precision is the measurement precision of every sweep the subcommands run.
var precision = core.Precision{MinReps: 3, MaxReps: 15, Confidence: 0.95, RelErr: 0.03, MaxSeconds: 300}

// gemmFlops is the complexity of one unit of the b=128 GEMM kernel: 2·b³.
const gemmFlops = 2 * 128 * 128 * 128

func newPiecewise() core.Model { return model.NewPiecewise() }
func newAkima() core.Model     { return model.NewAkima() }

// sweepModels benchmarks a virtual kernel of flopsPerUnit on every device
// of p over sizes (device i's meter seeded p.seed+i) and fits one model of
// each kind to that device's single sweep: models[k][i] is kind k on
// device i. sizeFlags names the flags that set sizes, for the error when
// they leave it empty.
func sweepModels(p *simPlatform, flopsPerUnit float64, sizes []int, sizeFlags string, kinds ...func() core.Model) ([][]core.Model, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("%s: empty benchmark size grid (sizes start at 16 units)", sizeFlags)
	}
	ks, err := kernels.VirtualSet(p.devs, platform.DefaultNoise, flopsPerUnit, p.seed)
	if err != nil {
		return nil, err
	}
	models := make([][]core.Model, len(kinds))
	for k := range kinds {
		models[k] = make([]core.Model, len(p.devs))
	}
	for i, kern := range ks {
		pts, err := core.Sweep(kern, sizes, precision)
		if err != nil {
			return nil, err
		}
		for k, kind := range kinds {
			models[k][i] = kind()
			if err := core.UpdateAll(models[k][i], pts); err != nil {
				return nil, err
			}
		}
	}
	return models, nil
}

// runMatmul runs the heterogeneous parallel matrix multiplication (paper
// §4.1/4.3) for one matrix size and compares the partitioning algorithms'
// makespans; the submatrices are arranged column-based.
func runMatmul(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	grid := fs.Int("grid", 128, "matrix size in 128x128 blocks (D = grid^2 units)")
	points := fs.Int("points", 25, "benchmark points per device for the full models")
	layout := fs.Bool("layout", false, "print the FPM-geometric block arrangement as an ASCII grid")
	plat, err := parsePlatform(fs, args, "hcl")
	if err != nil {
		return err
	}
	if *grid <= 0 {
		return fmt.Errorf("invalid grid %d", *grid)
	}
	D := *grid * *grid
	// Full piecewise and Akima models per device, both fitted to one sweep.
	models, err := sweepModels(plat, gemmFlops, core.LogSizes(16, D+D/4, *points),
		fmt.Sprintf("-grid %d -points %d", *grid, *points), newPiecewise, newAkima)
	if err != nil {
		return err
	}
	pw, ak := models[0], models[1]

	t := trace.NewTable(
		fmt.Sprintf("matmul on %q: grid %dx%d blocks (D=%d units)", plat.name, *grid, *grid, D),
		"partitioning", "makespan s", "vs even")
	runWith := func(name string, areas []float64) (float64, error) {
		res, err := apps.RunMatmul(apps.MatmulConfig{
			NBlocks:    *grid,
			BlockBytes: 8 * 128 * 128,
			Devices:    plat.devs,
			Net:        plat.net,
			Areas:      areas,
			Noise:      platform.Quiet,
			Seed:       plat.seed,
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return res.Makespan, nil
	}
	evenAreas := make([]float64, len(plat.devs))
	for i := range evenAreas {
		evenAreas[i] = 1
	}
	evenT, err := runWith("even", evenAreas)
	if err != nil {
		return err
	}
	t.AddRow("even", evenT, 1.0)
	for _, c := range []struct {
		name   string
		algo   core.Partitioner
		models []core.Model
	}{
		{"cpm", partition.Constant(), pw},
		{"fpm-geometric", partition.Geometric(), pw},
		{"fpm-numerical", partition.Numerical(), ak},
	} {
		dist, err := c.algo.Partition(c.models, D)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		areas := apps.AreasFromDist(dist)
		if *layout && c.name == "fpm-geometric" {
			rects, err := matpart.PartitionGrid(areas, *grid)
			if err != nil {
				return err
			}
			pic, err := matpart.Render(rects, *grid, 64)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "fpm-geometric arrangement (one letter per process):\n%s\n", pic)
		}
		mk, err := runWith(c.name, areas)
		if err != nil {
			return err
		}
		t.AddRow(c.name, mk, evenT/mk)
	}
	_, err = t.WriteTo(stdout)
	return err
}

// runJacobi runs the dynamically load-balanced Jacobi method (paper §4.4,
// Fig. 4) and prints the per-iteration per-process compute times, which
// converge from a wide spread to a balanced band.
func runJacobi(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	n := fs.Int("n", 20000, "system rows to distribute")
	iters := fs.Int("iters", 9, "Jacobi iterations to run")
	minGain := fs.Float64("min-gain", 0, "redistribution threshold (relative predicted gain)")
	gantt := fs.Bool("gantt", false, "render per-iteration times as text bars instead of a table")
	plat, err := parsePlatform(fs, args, "jacobi")
	if err != nil {
		return err
	}
	res, err := apps.RunJacobi(apps.JacobiConfig{
		N:          *n,
		Iterations: *iters,
		Devices:    plat.devs,
		Net:        plat.net,
		Balance: dynamic.Config{
			Algorithm: partition.Geometric(),
			NewModel:  newPiecewise,
		},
		MinGain:  *minGain,
		RowBytes: 8 * 1024,
		Noise:    platform.DefaultNoise,
		Seed:     plat.seed,
	})
	if err != nil {
		return err
	}
	if !*gantt {
		_, err = experiments.JacobiTable(plat.devs, res, *n).WriteTo(stdout)
		return err
	}
	worst := 0.0
	for _, times := range res.IterTimes {
		for _, v := range times {
			worst = math.Max(worst, v)
		}
	}
	fmt.Fprintf(stdout, "per-process compute time per iteration (bar = %0.3gs full scale)\n\n", worst)
	for k, times := range res.IterTimes {
		fmt.Fprintf(stdout, "iteration %d\n", k+1)
		for i, v := range times {
			fmt.Fprintf(stdout, "  %-14s %s\n", plat.devs[i].Name(), trace.Bar(v, worst, 40))
		}
	}
	fmt.Fprintf(stdout, "\n%d redistributions, total %.4gs\n", res.Redistributions, res.Makespan)
	return nil
}

// stencilRun is apps.RunStencil; a test swaps in a run whose numeric error
// is not zero.
var stencilRun = apps.RunStencil

// runStencil runs the heterogeneous 1D heat-diffusion stencil under the
// even and the FPM-based cell distributions. Each distributed run carries
// real data (halo exchange between neighbours) and reports its max-norm
// error against a serial reference.
func runStencil(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	cells := fs.Int("cells", 40000, "total cells to distribute")
	steps := fs.Int("steps", 25, "time steps")
	alpha := fs.Float64("alpha", 0.25, "diffusion coefficient (0, 0.5]")
	plat, err := parsePlatform(fs, args, "jacobi")
	if err != nil {
		return err
	}
	// FPMs of the cell-update kernel: 1 unit = 1 cell = 5 flops.
	models, err := sweepModels(plat, 5, core.LogSizes(16, *cells, 20),
		fmt.Sprintf("-cells %d", *cells), newPiecewise)
	if err != nil {
		return err
	}
	dist, err := partition.Geometric().Partition(models[0], *cells)
	if err != nil {
		return err
	}
	runWith := func(label string, d *core.Dist) (*apps.StencilResult, error) {
		res, err := stencilRun(apps.StencilConfig{
			N: *cells, Iterations: *steps, Alpha: *alpha,
			Devices: plat.devs, Net: plat.net, Dist: d,
			Noise: platform.DefaultNoise, Seed: plat.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		return res, nil
	}
	even, err := runWith("even", nil)
	if err != nil {
		return err
	}
	fpm, err := runWith("fpm", dist)
	if err != nil {
		return err
	}
	t := trace.NewTable(
		fmt.Sprintf("stencil: %d cells, %d steps, %d processes", *cells, *steps, len(plat.devs)),
		"distribution", "makespan s", "numeric err", "vs even")
	t.AddRow("even", even.Makespan, even.MaxError, 1.0)
	t.AddRow("fpm-geometric", fpm.Makespan, fpm.MaxError, even.Makespan/fpm.Makespan)
	_, err = t.WriteTo(stdout)
	return err
}

// runDynpart partitions a problem over devices with no prior performance
// models and prints the per-step trace (the paper's Fig. 3). With -bands
// it uses the certified band algorithm of Lastovetsky–Reddy (reference
// [11]) and reports the optimality certificate.
func runDynpart(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	D := fs.Int("D", 30000, "total problem size in computation units")
	eps := fs.Float64("eps", 0.03, "termination threshold")
	bands := fs.Bool("bands", false, "use the certified band algorithm instead of the movement heuristic")
	plat, err := parsePlatform(fs, args, "hcl")
	if err != nil {
		return err
	}
	ks, err := kernels.VirtualSet(plat.devs, platform.DefaultNoise, gemmFlops, plat.seed)
	if err != nil {
		return err
	}
	cfg := dynamic.Config{
		Algorithm: partition.Geometric(),
		NewModel:  newPiecewise,
		Precision: precision,
		Eps:       *eps,
		MaxIters:  40,
	}
	if *bands {
		res, err := dynamic.PartitionBands(ks, *D, cfg)
		if err != nil {
			return err
		}
		t := trace.NewTable(fmt.Sprintf("certified band partitioning of %d units", *D),
			"rank", "device", "units", "share %")
		for i, part := range res.Dist.Parts {
			t.AddRow(i, plat.devs[i].Name(), part.D, 100*float64(part.D)/float64(*D))
		}
		t.Note = fmt.Sprintf("steps %d, benchmark cost %.4gs, certificate: within %.3g·D of exact balance (certified=%v)",
			res.Steps, res.BenchmarkSeconds, res.Uncertainty, res.Certified)
		_, err = t.WriteTo(stdout)
		return err
	}
	res, err := dynamic.PartitionDynamic(ks, *D, cfg)
	if err != nil {
		return err
	}
	t := trace.NewTable(fmt.Sprintf("dynamic partitioning of %d units", *D),
		"step", "shares", "max rel change", "model points")
	for i, s := range res.Steps {
		t.AddRow(i+1, fmt.Sprintf("%v", s.Dist.Sizes()), s.Change, s.ModelPoints)
	}
	t.Note = fmt.Sprintf("converged=%v after %d steps; benchmark cost %.4gs",
		res.Converged, len(res.Steps), res.BenchmarkSeconds)
	_, err = t.WriteTo(stdout)
	return err
}

// runMachine lists a machine file's nodes and devices with their modelled
// speeds at a few probe sizes, so a platform description can be
// sanity-checked before it is benchmarked.
func runMachine(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	probesFlag := fs.String("probes", "1000,10000,50000", "comma-separated probe sizes (units)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one machine file, got %d args", fs.NArg())
	}
	var probes []int
	for _, s := range strings.Split(*probesFlag, ",") {
		if s == "" {
			continue
		}
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			return fmt.Errorf("bad probe size %q", s)
		}
		probes = append(probes, v)
	}
	if len(probes) == 0 {
		return errors.New("-probes names no probe size")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := config.Parse(f)
	if err != nil {
		return err
	}
	cols := []string{"rank", "node", "device", "kind"}
	for _, p := range probes {
		cols = append(cols, fmt.Sprintf("u/s @%d", p))
	}
	t := trace.NewTable(fmt.Sprintf("%s: %d nodes, %d devices", fs.Arg(0), len(m.Nodes), m.Size()), cols...)
	rank := 0
	totalAt := make([]float64, len(probes))
	for ni, node := range m.Nodes {
		for _, dev := range node.Devices {
			row := []any{rank, fmt.Sprintf("%d:%s", ni, node.Name), dev.Name(), kindOf(dev)}
			for pi, p := range probes {
				s := platform.Speed(dev, float64(p))
				totalAt[pi] += s
				row = append(row, s)
			}
			t.AddRow(row...)
			rank++
		}
	}
	row := []any{"", "", "TOTAL", ""}
	for _, s := range totalAt {
		row = append(row, s)
	}
	t.AddRow(row...)
	_, err = t.WriteTo(stdout)
	return err
}

func kindOf(dev platform.Device) string {
	switch dev.(type) {
	case *platform.CPUCore:
		return "cpu"
	case *platform.GPU:
		return "gpu"
	case *platform.SocketCore:
		return "socket-core"
	default:
		return "device"
	}
}
