package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fupermod/internal/apps"
	"fupermod/internal/experiments"
	"fupermod/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

const twoNode = "examples/machines/two-node.machine"

// TestGolden pins each subcommand's output byte for byte. It runs from the
// repository root, so a machine file's path prints as it would there.
func TestGolden(t *testing.T) {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"matmul", []string{"matmul"}},
		{"jacobi", []string{"jacobi"}},
		{"stencil", []string{"stencil"}},
		{"dynpart", []string{"dynpart"}},
		{"machine", []string{"machine", twoNode}},
		{"matmul-machine-layout", []string{"matmul", "-machine", twoNode, "-layout"}},
		{"stencil-machine", []string{"stencil", "-machine", twoNode}},
		{"dynpart-bands", []string{"dynpart", "-bands"}},
		{"jacobi-gantt", []string{"jacobi", "-gantt"}},
		{"machine-probes", []string{"machine", "-probes", "500,5000", twoNode}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out, new(bytes.Buffer)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("fupermod-sim %s differs from %s:\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), path, out.Bytes(), want)
			}
		})
	}
}

func TestJacobiRendersFig4(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"jacobi"}, &got, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	tb, err := experiments.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if want := tb.String(); got.String() != want {
		t.Errorf("jacobi at its defaults is not Fig. 4:\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestStencilPrintsNumericError wraps the stencil run so it diverges from
// the serial reference, and checks each row prints its run's MaxError.
func TestStencilPrintsNumericError(t *testing.T) {
	var maxErrs []float64
	stencilRun = func(cfg apps.StencilConfig) (*apps.StencilResult, error) {
		res, err := apps.RunStencil(cfg)
		if err != nil {
			return nil, err
		}
		res.MaxError += 0.125 * float64(len(maxErrs)+1)
		maxErrs = append(maxErrs, res.MaxError)
		return res, nil
	}
	t.Cleanup(func() { stencilRun = apps.RunStencil })
	var out bytes.Buffer
	if err := run([]string{"stencil", "-cells", "2000", "-steps", "5"}, &out, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	if len(maxErrs) != 2 {
		t.Fatalf("want an even and an FPM run, got %d runs", len(maxErrs))
	}
	for i, label := range []string{"even", "fpm-geometric"} {
		var row []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == label {
				row = f
			}
		}
		if row == nil {
			t.Fatalf("no %s row in:\n%s", label, out.String())
		}
		if want := trace.Cell(maxErrs[i]); row[2] != want {
			t.Errorf("%s numeric err = %s, want the run's MaxError %s", label, row[2], want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring of the error
	}{
		{nil, "missing command"},
		{[]string{"bogus"}, `unknown command "bogus"`},
		{[]string{"matmul", "-cluster", "nope"}, "nope"},
		{[]string{"matmul", "-grid", "0"}, "invalid grid"},
		{[]string{"matmul", "-grid", "1"}, "-grid 1"},
		{[]string{"matmul", "-points", "0"}, "-points 0"},
		{[]string{"stencil", "-cells", "3"}, "-cells 3"},
		{[]string{"jacobi", "-machine", "missing.machine"}, "missing.machine"},
		{[]string{"machine"}, "exactly one machine file"},
		{[]string{"machine", "-probes", ",,", "../../" + twoNode}, "-probes"},
		{[]string{"machine", "-probes", "10,x", "../../" + twoNode}, `bad probe size "x"`},
		{[]string{"machine", "-probes", "12abc", "../../" + twoNode}, `bad probe size "12abc"`},
		{[]string{"machine", "-probes", "0", "../../" + twoNode}, `bad probe size "0"`},
	} {
		err := run(tc.args, new(bytes.Buffer), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fupermod-sim %s: error %v, want one containing %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

// TestFlags pins every subcommand's flag names and -cluster default: the
// 26 flags of the five programs fupermod-sim replaced. The usage goes to
// stderr, as a bad flag's does: stdout carries only a command's data.
func TestFlags(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		command, cluster string // cluster is the -cluster default; "" for no platform flags
		flags            []string
	}{
		{"matmul", "hcl", []string{"grid", "points", "layout"}},
		{"jacobi", "jacobi", []string{"n", "iters", "min-gain", "gantt"}},
		{"stencil", "jacobi", []string{"cells", "steps", "alpha"}},
		{"dynpart", "hcl", []string{"D", "eps", "bands"}},
		{"machine", "", []string{"probes"}},
	} {
		var stdout, help bytes.Buffer
		if err := run([]string{tc.command, "-h"}, &stdout, &help); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: want flag.ErrHelp, got %v", tc.command, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s -h wrote to stdout:\n%s", tc.command, stdout.String())
		}
		flags := tc.flags
		if tc.cluster != "" {
			flags = append(flags, "cluster", "machine", "seed")
			if !strings.Contains(help.String(), `(default "`+tc.cluster+`")`) {
				t.Errorf("%s: -cluster should default to %s:\n%s", tc.command, tc.cluster, help.String())
			}
		}
		for _, f := range flags {
			if !strings.Contains(help.String(), "\n  -"+f+" ") && !strings.Contains(help.String(), "\n  -"+f+"\n") {
				t.Errorf("%s has no -%s flag:\n%s", tc.command, f, help.String())
			}
		}
		n := strings.Count(help.String(), "\n  -")
		if n != len(flags) {
			t.Errorf("%s has %d flags, want %d", tc.command, n, len(flags))
		}
		total += n

		stdout.Reset()
		var stderr bytes.Buffer
		if err := run([]string{tc.command, "-bogus"}, &stdout, &stderr); err == nil {
			t.Errorf("%s -bogus: want an error", tc.command)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-bogus") {
			t.Errorf("%s -bogus: want the flag error on stderr only; stdout:\n%s\nstderr:\n%s",
				tc.command, stdout.String(), stderr.String())
		}
	}
	if total != 26 {
		t.Errorf("%d flags in all, want 26", total)
	}
}
