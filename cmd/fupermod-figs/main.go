// Command fupermod-figs regenerates the evaluation artefacts of the
// FuPerMod paper: the series behind Figures 2–4 plus the supplementary
// experiments described in EXPERIMENTS.md. With no arguments it runs
// everything in order; otherwise each argument is an experiment id. An
// unknown id exits 2, a failed experiment 1.
//
// Usage:
//
//	fupermod-figs [-list] [-csv | -outdir DIR] [id ...]
//
// Examples:
//
//	fupermod-figs              # all experiments
//	fupermod-figs fig2a fig4   # just those two
//	fupermod-figs -list        # show the available ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fupermod/internal/experiments"
)

// usageError is a bad flag or an unknown experiment id: main exits 2 for
// it and 1 for a failed run.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "fupermod-figs:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run writes the tables to stdout, and flag errors and -h usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fupermod-figs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiment ids and exit")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	outDir := fs.String("outdir", "", "write one CSV file per experiment into this directory instead of stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-6s  %s\n", e.ID, e.Paper)
		}
		return nil
	}
	var entries []experiments.Entry
	for _, id := range fs.Args() {
		e, err := experiments.Lookup(id)
		if err != nil {
			return usageError{err}
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		entries = experiments.All()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range entries {
		tb, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, e.ID+".csv")
			f, err := os.Create(path)
			if err == nil {
				err = tb.WriteCSV(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintf(stdout, "%s -> %s\n", e.ID, path)
			continue
		}
		fmt.Fprintf(stdout, "# %s — %s\n", e.ID, e.Paper)
		if *asCSV {
			err = tb.WriteCSV(stdout)
		} else {
			_, err = tb.WriteTo(stdout)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
