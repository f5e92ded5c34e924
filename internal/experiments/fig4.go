package experiments

import (
	"fmt"

	"fupermod/internal/apps"
	"fupermod/internal/comm"
	"fupermod/internal/core"
	"fupermod/internal/dynamic"
	"fupermod/internal/model"
	"fupermod/internal/partition"
	"fupermod/internal/platform"
	"fupermod/internal/trace"
)

// Fig4 reproduces the paper's Fig. 4: dynamic load balancing of the Jacobi
// method. Eight heterogeneous processes start from the even distribution;
// at every iteration the geometric partitioner redistributes rows from the
// observed iteration times. The per-iteration per-process compute times —
// the bars of the paper's figure — collapse from a wide spread to a
// balanced band within a few iterations.
func Fig4() (*trace.Table, error) {
	const rows = 20000
	devs := platform.JacobiCluster()
	res, err := apps.RunJacobi(apps.JacobiConfig{
		N:          rows,
		Iterations: 9, // the paper's figure spans 9 iterations
		Devices:    devs,
		Net:        comm.GigabitEthernet,
		Balance: dynamic.Config{
			Algorithm: partition.Geometric(),
			NewModel:  func() core.Model { return model.NewPiecewise() },
		},
		RowBytes: 8 * 1024,
		Noise:    platform.DefaultNoise,
		Seed:     7,
	})
	if err != nil {
		return nil, err
	}
	return JacobiTable(devs, res, rows), nil
}

// JacobiTable tabulates a Jacobi run of n rows over devs: one row per
// iteration with each process's compute time, the slowest time and the
// max/min imbalance. Fig4 and fupermod-sim jacobi both print it.
func JacobiTable(devs []platform.Device, res *apps.JacobiResult, n int) *trace.Table {
	cols := []string{"iter"}
	for _, dev := range devs {
		cols = append(cols, dev.Name()+" s")
	}
	cols = append(cols, "max s", "imbalance")
	t := trace.NewTable("dynamic load balancing of the Jacobi method", cols...)
	t.Note = fmt.Sprintf("N=%d rows over %d heterogeneous processes; %d redistributions; makespan %.3gs",
		n, len(devs), res.Redistributions, res.Makespan)
	for k, times := range res.IterTimes {
		row := make([]any, 0, len(cols))
		row = append(row, k+1)
		maxT, minT := 0.0, 0.0
		for i, v := range times {
			row = append(row, v)
			if i == 0 || v > maxT {
				maxT = v
			}
			if v > 0 && (minT == 0 || v < minT) {
				minT = v
			}
		}
		imb := 1.0
		if minT > 0 {
			imb = maxT / minT
		}
		row = append(row, maxT, imb)
		t.AddRow(row...)
	}
	return t
}
