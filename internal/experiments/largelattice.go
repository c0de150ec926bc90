package experiments

import (
	"fmt"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/report"
	"vmcloud/internal/schema"
	"vmcloud/internal/search"
	"vmcloud/internal/workload"
)

// The beyond-the-paper stress experiment: a synthetic multi-dimension
// schema whose cuboid lattice dwarfs the 16-node sales lattice, solved
// by both the linearized knapsack and the exact-evaluator metaheuristic
// search under identical constraints and the advisor's evaluation
// budget. The setting is the canonical 4-dimension × 4-level
// (256-cuboid) one; only the seed varies.
const (
	// largeDims and largeLevels shape the synthetic schema (levels count
	// ALL).
	largeDims, largeLevels = 4, 4
	// largeFactRows sizes the base cuboid.
	largeFactRows = 1_000_000_000
	// largeQueries and largeMaxFreq shape the seeded-random workload.
	largeQueries, largeMaxFreq = 20, 8
	// largeCandidates caps the HRU candidate pre-selection.
	largeCandidates = 32
	// largeBudgetFactor sets the MV1 budget at BaselineBill × factor, so
	// the constraint binds without being unreachable.
	largeBudgetFactor = 1.01
	// largeAlpha is the MV3 tradeoff weight.
	largeAlpha = 0.5
)

// SolverOutcome is one solver's exactly re-priced selection.
type SolverOutcome struct {
	Strategy string
	Time     time.Duration
	Bill     costmodel.Bill
	Views    int
	Feasible bool
}

func outcome(sel optimizer.Selection) SolverOutcome {
	return SolverOutcome{
		Strategy: sel.Strategy,
		Time:     sel.Time,
		Bill:     sel.Bill,
		Views:    len(sel.Points),
		Feasible: sel.Feasible,
	}
}

// LargeLatticeResult is the head-to-head comparison on one generated
// lattice. Every number is exact (re-priced by the evaluator both
// solvers share), so the MV1 times and MV3 objectives are directly
// comparable.
type LargeLatticeResult struct {
	SchemaName   string
	Nodes        int
	Candidates   int
	BaselineTime time.Duration
	BaselineBill costmodel.Bill
	Budget       money.Money
	Alpha        float64
	MaxEvals     int

	KnapsackMV1, SearchMV1 SolverOutcome
	KnapsackMV3, SearchMV3 SolverOutcome
}

// MV3Objective evaluates the raw Formula 15 objective for an outcome.
func (r *LargeLatticeResult) MV3Objective(o SolverOutcome) float64 {
	sc, _ := optimizer.Tradeoff(r.Alpha, optimizer.RawTradeoff, 0, costmodel.Bill{}) // Alpha is largeAlpha, in [0,1]
	return sc.Score(o.Time, o.Bill)
}

// RunLargeLattice generates the lattice and workload for a seed, which
// drives both the workload generator and the search solver, and solves
// MV1 and MV3 with both engines. The search rows are the advisor's own
// answers (core.New with SolverSearch: knapsack warm start, default
// evaluation budget), so the printed numbers reproduce through the
// CLI/daemon/facade; the knapsack rows are the same advisor's session
// solves. The warm start means search's exact objective can never be
// worse than the knapsack's: the experiment measures how much
// exact-evaluator local moves recover from the linearization error.
func RunLargeLattice(seed int64) (*LargeLatticeResult, error) {
	sch, err := schema.Synthetic(largeDims, largeLevels)
	if err != nil {
		return nil, err
	}
	l, err := lattice.New(sch, largeFactRows)
	if err != nil {
		return nil, err
	}
	w, err := workload.Random(l, largeQueries, largeMaxFreq, seed)
	if err != nil {
		return nil, err
	}
	// Heavyweight maintenance (cf. the one-shot regime): views carry a
	// real monthly cost, so the MV1 budget genuinely binds and which
	// subset to buy is a combinatorial question, not "take everything".
	adv, err := core.New(core.Config{
		Schema:          sch,
		FactRows:        largeFactRows,
		Workload:        w,
		CandidateBudget: largeCandidates,
		MaintenanceRuns: 6,
		UpdateRatio:     0.50,
		Solver:          core.SolverSearch,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	sess := adv.Session()
	baseT, baseBill, err := sess.Base()
	if err != nil {
		return nil, err
	}
	res := &LargeLatticeResult{
		SchemaName:   sch.Name,
		Nodes:        l.NumNodes(),
		Candidates:   len(adv.Candidates),
		BaselineTime: baseT,
		BaselineBill: baseBill,
		Budget:       baseBill.Total().MulFloat(largeBudgetFactor),
		Alpha:        largeAlpha,
		MaxEvals:     search.DefaultMaxEvals,
	}

	knap1, err := sess.SolveMV1(res.Budget)
	if err != nil {
		return nil, err
	}
	res.KnapsackMV1 = outcome(knap1)
	search1, err := adv.AdviseBudget(res.Budget)
	if err != nil {
		return nil, err
	}
	res.SearchMV1 = outcome(search1.Selection)

	knap3, err := sess.SolveMV3(largeAlpha, optimizer.RawTradeoff)
	if err != nil {
		return nil, err
	}
	res.KnapsackMV3 = outcome(knap3)
	search3, err := adv.AdviseTradeoff(largeAlpha)
	if err != nil {
		return nil, err
	}
	res.SearchMV3 = outcome(search3.Selection)
	return res, nil
}

// LargeLatticeTable renders the head-to-head comparison.
func LargeLatticeTable(r *LargeLatticeResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s: %d cuboids, %d candidates, budget %v, α=%.2g, eval budget %d",
			r.SchemaName, r.Nodes, r.Candidates, r.Budget, r.Alpha, r.MaxEvals),
		"scenario", "solver", "workload time", "bill", "views", "feasible")
	add := func(scenario string, o SolverOutcome) {
		t.AddRow(scenario, o.Strategy, fmtH(o.Time), o.Bill.Total(), o.Views, o.Feasible)
	}
	add("baseline", SolverOutcome{Strategy: "none", Time: r.BaselineTime, Bill: r.BaselineBill, Feasible: true})
	add("mv1", r.KnapsackMV1)
	add("mv1", r.SearchMV1)
	add("mv3", r.KnapsackMV3)
	add("mv3", r.SearchMV3)
	return t
}
