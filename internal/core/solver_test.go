package core

import (
	"testing"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/schema"
	"vmcloud/internal/workload"
)

func solverAdvisor(t *testing.T, solver string, seed int64) *Advisor {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	adv, err := New(Config{Workload: w, Solver: solver, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// TestSearchMatchesKnapsackOnPaperLattice pins the small-lattice
// contract: on the paper's 16-node sales lattice the metaheuristic
// engine reproduces the knapsack selection's exact re-priced time and
// bill for MV1 and MV2 (where the knapsack-plus-repair is already
// optimal), and never does worse on MV3's weighted objective (where the
// marginal linearization overbuys — search drops the views whose exact
// cost outweighs their savings).
func TestSearchMatchesKnapsackOnPaperLattice(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		knap := solverAdvisor(t, SolverKnapsack, 0)
		srch := solverAdvisor(t, SolverSearch, seed)

		kb, err := knap.AdviseBudget(money.FromDollars(25))
		if err != nil {
			t.Fatal(err)
		}
		sb, err := srch.AdviseBudget(money.FromDollars(25))
		if err != nil {
			t.Fatal(err)
		}
		if sb.Selection.Time != kb.Selection.Time || sb.Selection.Bill.Total() != kb.Selection.Bill.Total() {
			t.Errorf("seed %d mv1: search %v/%v, knapsack %v/%v", seed,
				sb.Selection.Time, sb.Selection.Bill.Total(), kb.Selection.Time, kb.Selection.Bill.Total())
		}
		if sb.Selection.Strategy != "mv1-search" {
			t.Errorf("seed %d: strategy %q", seed, sb.Selection.Strategy)
		}

		kd, err := knap.AdviseDeadline(4 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := srch.AdviseDeadline(4 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if sd.Selection.Time != kd.Selection.Time || sd.Selection.Bill.Total() != kd.Selection.Bill.Total() {
			t.Errorf("seed %d mv2: search %v/%v, knapsack %v/%v", seed,
				sd.Selection.Time, sd.Selection.Bill.Total(), kd.Selection.Time, kd.Selection.Bill.Total())
		}

		kt, err := knap.AdviseTradeoff(0.5)
		if err != nil {
			t.Fatal(err)
		}
		st, err := srch.AdviseTradeoff(0.5)
		if err != nil {
			t.Fatal(err)
		}
		mv3, err := optimizer.Tradeoff(0.5, optimizer.RawTradeoff, 0, costmodel.Bill{})
		if err != nil {
			t.Fatal(err)
		}
		ko := optimizer.Outcome{Time: kt.Selection.Time, Cost: kt.Selection.Bill.Total()}
		so := optimizer.Outcome{Time: st.Selection.Time, Cost: st.Selection.Bill.Total()}
		if mv3.Compare(so, ko) > 0 {
			t.Errorf("seed %d mv3: search %+v ranks after knapsack %+v", seed, so, ko)
		}
	}
}

// TestSearchParetoFront: the search-mode sweep produces a valid frontier
// (non-dominated, deterministic under a fixed seed).
func TestSearchParetoFront(t *testing.T) {
	adv := solverAdvisor(t, SolverSearch, 9)
	front, err := adv.ParetoFront(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i, p := range front {
		for j, q := range front {
			if i != j && q.Time <= p.Time && q.Cost <= p.Cost && (q.Time < p.Time || q.Cost < p.Cost) {
				t.Errorf("frontier point %d dominated by %d", i, j)
			}
		}
	}
	again, err := solverAdvisor(t, SolverSearch, 9).ParetoFront(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(front) {
		t.Fatalf("frontier size changed across identical runs: %d vs %d", len(front), len(again))
	}
	for i := range front {
		if front[i] != again[i] {
			t.Fatalf("frontier point %d differs across identical runs", i)
		}
	}
}

// TestAutoSolverResolution: "auto" resolves by candidate count — on the
// sales lattice (at most 15 candidates) it must stay on the knapsack.
func TestAutoSolverResolution(t *testing.T) {
	adv := solverAdvisor(t, SolverAuto, 0)
	if adv.Solver != SolverKnapsack {
		t.Fatalf("auto on the sales lattice resolved to %q, want knapsack (have %d candidates)",
			adv.Solver, len(adv.Candidates))
	}
	if len(adv.Candidates) > AutoSearchThreshold {
		t.Fatalf("sales candidate pool %d exceeds the auto threshold %d", len(adv.Candidates), AutoSearchThreshold)
	}
}

func TestCanonSolver(t *testing.T) {
	cases := map[string]string{
		"":         SolverKnapsack,
		"knapsack": SolverKnapsack,
		" Search ": SolverSearch,
		"AUTO":     SolverAuto,
	}
	for in, want := range cases {
		got, err := CanonSolver(in)
		if err != nil || got != want {
			t.Errorf("CanonSolver(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := CanonSolver("quantum"); err == nil {
		t.Error("CanonSolver accepted \"quantum\"")
	}
	if _, err := New(Config{Solver: "quantum"}); err == nil {
		t.Error("New accepted an unknown solver")
	}
}

// TestSearchParetoNeverWorseOnLargeLattice pins the pareto half of the
// "search never worse than knapsack" guarantee on the setting search
// exists for: on the 256-cuboid lattice, the search front's extreme
// points (fastest and cheapest) must be at least as good as the
// knapsack front's — the α=1 and α=0 sweeps are warm-started from the
// knapsack's own selections and priced before any budget can run dry.
func TestSearchParetoNeverWorseOnLargeLattice(t *testing.T) {
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lattice.New(sch, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Random(l, 20, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	front := func(solver string) []ParetoPoint {
		adv, err := New(Config{
			Schema: sch, FactRows: 1_000_000_000, Workload: w,
			CandidateBudget: 32, MaintenanceRuns: 6, UpdateRatio: 0.50,
			Solver: solver, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if solver == SolverSearch && len(adv.Candidates) <= AutoSearchThreshold {
			t.Fatalf("only %d candidates — not a large instance", len(adv.Candidates))
		}
		f, err := adv.ParetoFront(11)
		if err != nil {
			t.Fatal(err)
		}
		if len(f) == 0 {
			t.Fatal("empty frontier")
		}
		return f
	}
	knap, srch := front(SolverKnapsack), front(SolverSearch)
	extremes := func(f []ParetoPoint) (minT time.Duration, minC money.Money) {
		minT, minC = f[0].Time, f[0].Cost
		for _, p := range f[1:] {
			if p.Time < minT {
				minT = p.Time
			}
			if p.Cost < minC {
				minC = p.Cost
			}
		}
		return minT, minC
	}
	kT, kC := extremes(knap)
	sT, sC := extremes(srch)
	if sT > kT {
		t.Errorf("search front's fastest point %v worse than knapsack's %v", sT, kT)
	}
	if sC > kC {
		t.Errorf("search front's cheapest point %v worse than knapsack's %v", sC, kC)
	}
}
