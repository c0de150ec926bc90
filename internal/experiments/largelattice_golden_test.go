package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// TestLargeLatticeGolden pins the rendered head-to-head table of the
// 256-cuboid experiment at seed 1 byte for byte. Both solvers' exact
// times, bills and view counts are embedded in the table, so this golden
// guards the whole pipeline — lattice estimates, HRU candidate
// generation, knapsack, and the seeded search — against any behavioral
// drift from the incremental evaluation engine.
func TestLargeLatticeGolden(t *testing.T) {
	r, err := RunLargeLattice(1)
	if err != nil {
		t.Fatal(err)
	}
	got := LargeLatticeTable(r).String()
	path := filepath.Join("testdata", "largelattice_seed1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/experiments -run LargeLatticeGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("256-cuboid seed-1 table drifted from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
