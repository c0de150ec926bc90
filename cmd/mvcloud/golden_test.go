package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// checkGolden compares output against testdata/<name>.golden, rewriting
// it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./cmd/mvcloud -run Golden -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("output drifted from committed golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestSweepCLIGolden pins the exact stdout of a tariff-grid sweep over
// the paper's 16-node sales lattice — the structure-sharing kernel must
// keep re-pricing every cell to exactly these bills. CI smoke-runs the
// same subcommand.
func TestSweepCLIGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"sweep_mv1_fleets", []string{"-scenario", "mv1", "-budget", "25.00", "-fleets", "3,5", "-rows", "10000000"}},
		{"sweep_mv3_search", []string{"-scenario", "mv3", "-alpha", "0.65", "-fleets", "5", "-rows", "10000000", "-solver", "search", "-seed", "42"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runSweepArgs(c.args, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}

// TestSearchCLIGoldens pins the exact stdout of seeded `mvcloud -solver
// search` runs on the paper's sales lattice. The incremental evaluation
// engine must keep these byte-identical: a pinned seed must keep
// selecting — and pricing — exactly the same views after the refactor.
func TestSearchCLIGoldens(t *testing.T) {
	checkAdviseGoldens(t, []golden{
		{"mv1_search_seed42", []string{"-scenario", "mv1", "-invoice", "-solver", "search", "-seed", "42"}},
		{"mv2_search_seed7", []string{"-scenario", "mv2", "-solver", "search", "-seed", "7"}},
		{"pareto_search_seed5", []string{"-scenario", "pareto", "-steps", "5", "-solver", "search", "-seed", "5"}},
	})
}

// TestAdviseCLIGoldens pins the exact stdout of knapsack advise runs:
// an mv1 recommendation with its itemized invoice, an mv3 trade-off, and
// a tariff read from a JSON file with -provider-file. CI diffs the first
// against `go run ./cmd/mvcloud -scenario mv1 -invoice …`.
func TestAdviseCLIGoldens(t *testing.T) {
	checkAdviseGoldens(t, []golden{
		{"mv1_invoice", []string{"-scenario", "mv1", "-invoice"}},
		{"mv3_alpha065", []string{"-scenario", "mv3", "-alpha", "0.65"}},
		{"mv1_provider_file", []string{"-scenario", "mv1", "-invoice", "-provider-file", "testdata/handmade_tariff.json"}},
	})
}

// TestTariffsCLIGolden pins the exact stdout of mvcloud -tariffs: the
// compute and storage tables of every catalog provider, the tables
// GET /v1/tariffs serves.
func TestTariffsCLIGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runAdviseArgs([]string{"-tariffs"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tariffs", buf.Bytes())
}

type golden struct {
	name string
	args []string
}

// checkAdviseGoldens runs each advise command on the paper's sales
// lattice at 10M fact rows and checks its stdout against its golden.
func checkAdviseGoldens(t *testing.T, cases []golden) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runAdviseArgs(withFast(c.args...), &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}

// TestCompareCLIGolden pins the exact stdout of the compare subcommand,
// as the report table and as the /v1/compare wire JSON. CI diffs the
// table against `go run ./cmd/mvcloud compare …`.
func TestCompareCLIGolden(t *testing.T) {
	args := withFast("-providers", "aws-2012,stratus", "-fleets", "3,5")
	for _, c := range []golden{
		{"compare_table", args},
		{"compare_json", append(args, "-json")},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runCompareArgs(c.args, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, buf.Bytes())
		})
	}
}
