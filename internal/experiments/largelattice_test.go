package experiments

import (
	"testing"
)

// TestLargeLatticeSearchBeatsKnapsack is the acceptance bar for the
// metaheuristic engine: on the generated 4-dimension × 4-level
// (256-cuboid) lattice, the search's exact re-priced objective must be
// at least as good as the linearized knapsack's under identical
// constraints and a fixed evaluation budget — for MV1 (workload time
// within the same budget) and MV3 (the raw Formula 15 objective).
func TestLargeLatticeSearchBeatsKnapsack(t *testing.T) {
	strictly := 0
	for _, seed := range []int64{1, 2, 3} {
		r, err := RunLargeLattice(seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.Nodes != 256 {
			t.Fatalf("seed %d: %d cuboids, want 256", seed, r.Nodes)
		}
		if r.Candidates <= 15 {
			t.Fatalf("seed %d: only %d candidates — not a large instance", seed, r.Candidates)
		}
		// MV1: both solvers must respect the budget exactly; search must
		// be at least as fast.
		if !r.KnapsackMV1.Feasible || !r.SearchMV1.Feasible {
			t.Fatalf("seed %d: infeasible mv1 outcome (knap %v, search %v)",
				seed, r.KnapsackMV1.Feasible, r.SearchMV1.Feasible)
		}
		if r.SearchMV1.Bill.Total() > r.Budget {
			t.Errorf("seed %d: search bill %v exceeds budget %v", seed, r.SearchMV1.Bill.Total(), r.Budget)
		}
		if r.SearchMV1.Time > r.KnapsackMV1.Time {
			t.Errorf("seed %d: search mv1 time %v worse than knapsack %v",
				seed, r.SearchMV1.Time, r.KnapsackMV1.Time)
		}
		if r.SearchMV1.Time < r.KnapsackMV1.Time {
			strictly++
		}
		// MV3: the exact weighted objective must not regress.
		if ko, so := r.MV3Objective(r.KnapsackMV3), r.MV3Objective(r.SearchMV3); so > ko+1e-9 {
			t.Errorf("seed %d: search mv3 objective %g worse than knapsack %g", seed, so, ko)
		}
	}
	// The point of the subsystem: on large lattices the linearization
	// error is real, so search should win outright somewhere.
	if strictly == 0 {
		t.Error("search never strictly improved on the knapsack across the seeds — instance too easy")
	}
}

// TestLargeLatticeDeterministic pins reproducibility: identical configs
// (and seeds) must yield identical exact outcomes.
func TestLargeLatticeDeterministic(t *testing.T) {
	a, err := RunLargeLattice(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLargeLattice(7)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("identical configs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
