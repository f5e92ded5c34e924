package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fupermod/internal/experiments"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(all), out.String())
	}
	for i, e := range all {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d is %q, want experiment %s", i, lines[i], e.ID)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	err := run([]string{"fig3", "nope"}, new(bytes.Buffer), new(bytes.Buffer))
	if !errors.As(err, new(usageError)) {
		t.Fatalf("unknown id: want a usage error (exit 2), got %v", err)
	}
	for _, e := range experiments.All() {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error does not list known id %s: %v", e.ID, err)
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-csv", "-bogus"}, &stdout, &stderr); !errors.As(err, new(usageError)) {
		t.Errorf("unknown flag: want a usage error (exit 2), got %v", err)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-bogus") {
		t.Errorf("unknown flag: want the error on stderr only; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

func TestRunCSVAndOutdir(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-csv", "fig3"}, &out, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	header, body, ok := strings.Cut(out.String(), "\n")
	if !ok || !strings.HasPrefix(header, "# fig3 ") {
		t.Fatalf("want a '# fig3' header line, got:\n%s", out.String())
	}
	r := csv.NewReader(strings.NewReader(body))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("-csv fig3 does not parse as CSV: %v\n%s", err, body)
	}
	if len(recs) < 2 {
		t.Fatalf("want a header and data records, got %d records", len(recs))
	}

	dir := filepath.Join(t.TempDir(), "figs")
	var log bytes.Buffer
	if err := run([]string{"-outdir", dir, "fig3"}, &log, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig3.csv")
	if want := "fig3 -> " + path + "\n"; log.String() != want {
		t.Errorf("-outdir printed %q, want %q", log.String(), want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != body {
		t.Errorf("%s differs from the -csv body:\ngot:\n%s\nwant:\n%s", path, got, body)
	}
}
