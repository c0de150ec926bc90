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

// LargeLatticeConfig parameterizes the beyond-the-paper stress
// experiment: a synthetic multi-dimension schema whose cuboid lattice
// dwarfs the 16-node sales lattice, solved by both the linearized
// knapsack and the exact-evaluator metaheuristic search under identical
// constraints and a fixed evaluation budget. Zero values select the
// canonical 4-dimension × 4-level (256-cuboid) setting.
type LargeLatticeConfig struct {
	// Dims and Levels shape the synthetic schema (Levels counts ALL).
	Dims, Levels int
	// FactRows sizes the base cuboid.
	FactRows int64
	// Queries and MaxFreq shape the seeded-random workload.
	Queries, MaxFreq int
	// CandidateBudget caps the HRU candidate pre-selection.
	CandidateBudget int
	// Seed drives both the workload generator and the search solver.
	Seed int64
	// MaxEvals is the search solver's exact-evaluation budget.
	MaxEvals int
	// BudgetFactor sets the MV1 budget at BaselineBill × factor, so the
	// constraint binds without being unreachable.
	BudgetFactor float64
	// Alpha is the MV3 tradeoff weight.
	Alpha float64
}

func (c LargeLatticeConfig) withDefaults() LargeLatticeConfig {
	if c.Dims == 0 {
		c.Dims = 4
	}
	if c.Levels == 0 {
		c.Levels = 4
	}
	if c.FactRows == 0 {
		c.FactRows = 1_000_000_000
	}
	if c.Queries == 0 {
		c.Queries = 20
	}
	if c.MaxFreq == 0 {
		c.MaxFreq = 8
	}
	if c.CandidateBudget == 0 {
		c.CandidateBudget = 32
	}
	// Seed 0 is a valid, distinct seed on every other surface (CLI,
	// daemon, facade) — no default remapping, or "-large-seed 0" would
	// silently fail to reproduce a seed-0 advisor run.
	if c.MaxEvals == 0 {
		// Match the advisor's default so the printed numbers reproduce
		// exactly through the CLI/daemon/facade search path.
		c.MaxEvals = search.DefaultMaxEvals
	}
	if c.BudgetFactor == 0 {
		c.BudgetFactor = 1.01
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	return c
}

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
	return optimizer.Objective(r.Alpha, o.Time, o.Bill, optimizer.RawTradeoff, 0, costmodel.Bill{})
}

// RunLargeLattice generates the lattice and workload, pre-selects
// candidates, and solves MV1 and MV3 with both engines. The advisor
// stack is built through core.New with the same Config fields every
// advisor-facing surface uses, and the search runs exactly as the
// advisor's search dispatch does — knapsack warm start, default
// evaluation budget (unless overridden) — so at the default MaxEvals the
// printed numbers reproduce through the CLI/daemon/facade. The warm
// start means search's exact objective can never be worse than the
// knapsack's: the experiment measures how much exact-evaluator local
// moves recover from the linearization error.
func RunLargeLattice(cfg LargeLatticeConfig) (*LargeLatticeResult, error) {
	cfg = cfg.withDefaults()
	sch, err := schema.Synthetic(cfg.Dims, cfg.Levels)
	if err != nil {
		return nil, err
	}
	l, err := lattice.New(sch, cfg.FactRows)
	if err != nil {
		return nil, err
	}
	w, err := workload.Random(l, cfg.Queries, cfg.MaxFreq, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Heavyweight maintenance (cf. the one-shot regime): views carry a
	// real monthly cost, so the MV1 budget genuinely binds and which
	// subset to buy is a combinatorial question, not "take everything".
	adv, err := core.New(core.Config{
		Schema:          sch,
		FactRows:        cfg.FactRows,
		Workload:        w,
		CandidateBudget: cfg.CandidateBudget,
		MaintenanceRuns: 6,
		UpdateRatio:     0.50,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ev, cands, sess := adv.Ev, adv.Candidates, adv.Session()
	baseT, baseBill, err := sess.Base()
	if err != nil {
		return nil, err
	}
	res := &LargeLatticeResult{
		SchemaName:   sch.Name,
		Nodes:        l.NumNodes(),
		Candidates:   len(cands),
		BaselineTime: baseT,
		BaselineBill: baseBill,
		Budget:       baseBill.Total().MulFloat(cfg.BudgetFactor),
		Alpha:        cfg.Alpha,
		MaxEvals:     cfg.MaxEvals,
	}

	knap1, err := sess.SolveMV1(res.Budget)
	if err != nil {
		return nil, err
	}
	res.KnapsackMV1 = outcome(knap1)
	search1, err := search.SolveMV1(ev, cands, res.Budget, search.Options{
		Seed:     cfg.Seed,
		MaxEvals: cfg.MaxEvals,
		Starts:   [][]lattice.Point{knap1.Points},
		Engine:   sess.Engine(),
	})
	if err != nil {
		return nil, err
	}
	res.SearchMV1 = outcome(search1)

	knap3, err := sess.SolveMV3(cfg.Alpha, optimizer.RawTradeoff)
	if err != nil {
		return nil, err
	}
	res.KnapsackMV3 = outcome(knap3)
	search3, err := search.Solve(ev, cands,
		search.TradeoffObjective(cfg.Alpha, optimizer.RawTradeoff, 0, costmodel.Bill{}),
		search.Options{
			Seed:     cfg.Seed,
			MaxEvals: cfg.MaxEvals,
			Starts:   [][]lattice.Point{knap3.Points},
			Engine:   sess.Engine(),
		})
	if err != nil {
		return nil, err
	}
	res.SearchMV3 = outcome(search3)
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
