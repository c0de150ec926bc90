package search

import (
	"math"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// fixture wires the paper's sales setting into an exact evaluator plus a
// candidate pool, the same construction core.New performs.
func fixture(t testing.TB, queries, candBudget int) (*optimizer.Evaluator, []views.Candidate) {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	est := views.NewEstimator(l, cl)
	est.MaintenanceRuns = 4
	est.UpdateRatio = 0.20
	w, err := workload.Sales(l, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	base, err := l.Node(l.Base())
	if err != nil {
		t.Fatal(err)
	}
	egress, err := w.ResultBytes(l)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := optimizer.NewEvaluator(est, w, costmodel.Plan{
		Cluster:       cl,
		Months:        1,
		DatasetSize:   base.Size,
		MonthlyEgress: egress,
	})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, candBudget)
	if err != nil {
		t.Fatal(err)
	}
	return ev, cands
}

func samePoints(a, b []lattice.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestSolveDeterministicAcrossRuns(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	budget := money.FromDollars(25)
	for _, seed := range []int64{0, 1, 42} {
		a, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(a.Points, b.Points) || a.Time != b.Time || a.Bill.Total() != b.Bill.Total() {
			t.Fatalf("seed %d not deterministic: %v/%v vs %v/%v", seed, a.Points, a.Time, b.Points, b.Time)
		}
	}
}

func TestSolveMV1MatchesExhaustiveOracle(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	for _, dollars := range []float64{18, 25, 40} {
		budget := money.FromDollars(dollars)
		sc := optimizer.Budget(budget)
		oracle, err := ev.SolveExhaustive(cands, sc.Score, sc.Met)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(ev, cands, sc, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != oracle.Feasible {
			t.Fatalf("budget $%g: feasible %v, oracle %v", dollars, got.Feasible, oracle.Feasible)
		}
		if oracle.Feasible && got.Time != oracle.Time {
			t.Errorf("budget $%g: search time %v, oracle %v", dollars, got.Time, oracle.Time)
		}
	}
}

func TestSolveMV2MatchesExhaustiveOracle(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	baseT, _, err := ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		limit := time.Duration(float64(baseT) * frac)
		sc := optimizer.Deadline(limit)
		oracle, err := ev.SolveExhaustive(cands, sc.Score, sc.Met)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(ev, cands, sc, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != oracle.Feasible {
			t.Fatalf("limit %v: feasible %v, oracle %v", limit, got.Feasible, oracle.Feasible)
		}
		if oracle.Feasible && got.Bill.Total() != oracle.Bill.Total() {
			t.Errorf("limit %v: search bill %v, oracle %v", limit, got.Bill.Total(), oracle.Bill.Total())
		}
	}
}

func TestSolveMV3MatchesExhaustiveOracle(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	for _, alpha := range []float64{0, 0.35, 0.5, 0.8, 1} {
		sc, err := optimizer.Tradeoff(alpha, optimizer.RawTradeoff, 0, costmodel.Bill{})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := ev.SolveExhaustive(cands, sc.Score, sc.Met)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(ev, cands, sc, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		gotObj, wantObj := sc.Score(got.Time, got.Bill), sc.Score(oracle.Time, oracle.Bill)
		if gotObj > wantObj+1e-9 {
			t.Errorf("alpha %g: search objective %g worse than oracle %g", alpha, gotObj, wantObj)
		}
	}
}

func TestSolveRespectsEvalBudget(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	for _, maxEvals := range []int{1, 10, 100} {
		sel, stats, err := SolveStats(ev, cands, optimizer.Budget(money.FromDollars(25)), Options{Seed: 1, MaxEvals: maxEvals})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Evals > maxEvals {
			t.Fatalf("MaxEvals %d: consumed %d evaluations", maxEvals, stats.Evals)
		}
		// Whatever the budget, the result is exactly priced.
		tt, bill, err := ev.Evaluate(sel.Points)
		if err != nil {
			t.Fatal(err)
		}
		if tt != sel.Time || bill.Total() != sel.Bill.Total() {
			t.Fatalf("MaxEvals %d: selection not exactly priced: %v/%v vs %v/%v",
				maxEvals, sel.Time, sel.Bill.Total(), tt, bill.Total())
		}
	}
}

func TestSolveInfeasibleBudget(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	// A one-cent budget cannot cover even the no-view baseline.
	sel, err := Solve(ev, cands, optimizer.Budget(money.Cent), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Feasible {
		t.Fatalf("one-cent budget reported feasible: %+v", sel)
	}
	if sel.Strategy != "mv1-search" {
		t.Fatalf("strategy = %q, want mv1-search", sel.Strategy)
	}
}

func TestSolveEmptyCandidates(t *testing.T) {
	ev, _ := fixture(t, 10, 8)
	sel, err := Solve(ev, nil, optimizer.Budget(money.FromDollars(25)), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) != 0 {
		t.Fatalf("empty candidate pool selected %v", sel.Points)
	}
	baseT, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Time != baseT || sel.Bill.Total() != baseBill.Total() {
		t.Fatalf("empty pool not priced at baseline: %v/%v", sel.Time, sel.Bill.Total())
	}
}

func TestSolveOptionValidation(t *testing.T) {
	ev, cands := fixture(t, 3, 4)
	cases := []Options{
		{MaxEvals: -1},
	}
	for _, opts := range cases {
		if _, err := Solve(ev, cands, optimizer.Budget(money.FromDollars(25)), opts); err == nil {
			t.Errorf("options %+v accepted", opts)
		}
	}
	// An α out of range has no scenario, and the solver refuses that.
	for _, alpha := range []float64{1.5, math.NaN()} {
		if _, err := Solve(ev, cands, TradeoffObjective(alpha, optimizer.RawTradeoff, 0, costmodel.Bill{}), Options{}); err == nil || !strings.Contains(err.Error(), "no scenario") {
			t.Errorf("alpha %g: error %v, want no scenario", alpha, err)
		}
	}
}

// alphaSweep is core.Advisor.ParetoFront's scenarios: α over [0,1] in
// steps, in normalized Formula 15.
func alphaSweep(t testing.TB, ev *optimizer.Evaluator, steps int) []optimizer.Scenario {
	t.Helper()
	baseT, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]optimizer.Scenario, steps)
	for i := range scs {
		if scs[i], err = optimizer.Tradeoff(float64(i)/float64(steps-1), optimizer.NormalizedTradeoff, baseT, baseBill); err != nil {
			t.Fatal(err)
		}
	}
	return scs
}

func TestParetoSweepDeterministicAndOrdered(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	scs := alphaSweep(t, ev, 7)
	a, err := ParetoSweep(ev, cands, scs, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParetoSweep(ev, cands, scs, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("sweep lengths %d/%d, want 7", len(a), len(b))
	}
	for i := range a {
		if !samePoints(a[i].Points, b[i].Points) {
			t.Fatalf("step %d differs across identical sweeps", i)
		}
	}
	// α = 0 is the cheapest bill and α = 1 the fastest time of the sweep.
	for _, sel := range a {
		if sel.Bill.Total() < a[0].Bill.Total() || sel.Time < a[6].Time {
			t.Fatalf("a step (%v, %v) beats the sweep's ends (%v, %v)", sel.Time, sel.Bill.Total(), a[6].Time, a[0].Bill.Total())
		}
	}
	if _, err := ParetoSweep(ev, cands, nil, Options{}); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestHillClimbSwapEscapesAddDropOptimum(t *testing.T) {
	// Structural check on the neighborhood: from the full set under a
	// tight budget, drops alone must find their way back to feasibility.
	ev, cands := fixture(t, 10, 8)
	s, err := newSolver(ev, cands, optimizer.Budget(money.FromDollars(20)), Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]bool, len(cands))
	for i := range full {
		full[i] = true
	}
	_, e, err := s.hillClimb(full)
	if err != nil {
		t.Fatal(err)
	}
	if e.viol > 0 {
		base, err := s.evaluate(make([]bool, len(cands)))
		if err != nil {
			t.Fatal(err)
		}
		if base.viol == 0 {
			t.Fatalf("climb stuck infeasible (viol %g) though the empty set is feasible", e.viol)
		}
	}
}

// TestWarmStartNeverWorse pins the restart wrapper's ordering contract:
// caller-provided warm starts are priced before anything else, so even
// under a near-empty evaluation budget the solve can never return a
// selection worse than its warm start.
func TestWarmStartNeverWorse(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	budget := money.FromDollars(25)
	sess, err := optimizer.NewSession(ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.SolveMV1(budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxEvals := range []int{2, 5, 50, 300} {
		sel, err := Solve(ev, cands, optimizer.Budget(budget), Options{
			Seed:     1,
			MaxEvals: maxEvals,
			Starts:   [][]lattice.Point{warm.Points},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sel.Feasible && warm.Feasible {
			t.Fatalf("MaxEvals %d: warm-started solve lost feasibility", maxEvals)
		}
		if sel.Feasible && sel.Time > warm.Time {
			t.Fatalf("MaxEvals %d: warm-started solve %v worse than its warm start %v",
				maxEvals, sel.Time, warm.Time)
		}
	}
}

// TestSwapProbeMoveBound gates the engine work of a solve in moves
// (Add/Drop calls, deterministic). On largeFixture, mv1, seed 1, the
// solver spent 15,204 moves for its 4,096 evaluations when every probe
// stepped the engine onto its neighbor and back, and 7,996 once a swap
// row took its candidate out once and annealing kept the step it had
// just priced. Probes are now read-only ("price, then move"): the
// engine moves only to apply a move the search keeps, to take a swap
// row's candidate out and put it back, and to re-pin a start — 3,028
// moves, 0.74 per evaluation, which the gate sits just above.
func TestSwapProbeMoveBound(t *testing.T) {
	const maxMoves = 3100
	ev, cands, budget := largeFixture(t)
	s, err := newSolver(ev, cands, optimizer.Budget(budget), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.solve(nil); err != nil {
		t.Fatal(err)
	}
	moves := s.inc.Moves()
	t.Logf("%d engine moves for %d evaluations: %.2f per evaluation", moves, s.evals, float64(moves)/float64(s.evals))
	if s.evals != DefaultMaxEvals {
		t.Fatalf("%d evaluations, want the full budget of %d", s.evals, DefaultMaxEvals)
	}
	if moves > maxMoves {
		t.Fatalf("%d engine moves, want at most %d", moves, maxMoves)
	}
}

// TestWarmSolveAllocs: on a shared engine a solve allocates its solver,
// its evaluation table (three slabs sized up front), its start bitmaps
// and per-stage state copies — a count that does not grow with the
// number of evaluations.
func TestWarmSolveAllocs(t *testing.T) {
	ev, cands, budget := largeFixture(t)
	sess, err := optimizer.NewSession(ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	inc := sess.Engine()
	allocs := func(maxEvals int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: 1, MaxEvals: maxEvals, Engine: inc}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, full := allocs(64), allocs(DefaultMaxEvals)
	t.Logf("allocs per warm solve: %v at 64 evaluations, %v at %d", few, full, DefaultMaxEvals)
	// A longer solve runs more stages (each copies its state bitmap a
	// couple of times); it must not allocate per evaluation.
	if full > few+64 || full > 128 {
		t.Fatalf("warm solve allocates %v times at %d evaluations (%v at 64): per-evaluation allocation", full, DefaultMaxEvals, few)
	}
}
