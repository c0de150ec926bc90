package optimizer

import (
	"fmt"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// Evaluator is the oracle: the paper's definitions stated as plain
// lattice walks, with no solver attached. Evaluate is the Section 4 cost
// model (workload time via cheapest-answering routing, the full
// tiered/rounded bill), BuildItems (in the package's tests) the Section
// 5.2 linearized weights, SolveExhaustive the optimum by enumeration.
// The Section 5 solver is KernelSession, which computes the same
// quantities over the kernel's flat arrays; the tests and the repo
// benchmark's oracle hold it to these three definitions.
type Evaluator struct {
	Est *views.Estimator
	W   workload.Workload
	// Base is the plan template: cluster, months, dataset size, egress.
	// Its view-related fields are overwritten per evaluation.
	Base costmodel.Plan
}

// NewEvaluator validates and builds an evaluator.
func NewEvaluator(est *views.Estimator, w workload.Workload, base costmodel.Plan) (*Evaluator, error) {
	if est == nil || est.Lat == nil || est.Cl == nil {
		return nil, fmt.Errorf("optimizer: estimator with lattice and cluster required")
	}
	if err := w.Validate(est.Lat); err != nil {
		return nil, err
	}
	if base.Cluster == nil {
		base.Cluster = est.Cl
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{Est: est, W: w, Base: base}, nil
}

// Evaluate returns the exact monthly workload time and period bill for
// materializing exactly the given points.
func (ev *Evaluator) Evaluate(points []lattice.Point) (time.Duration, costmodel.Bill, error) {
	proc := ev.Est.WorkloadTime(ev.W, points)
	maint := ev.Est.MaintenanceTimeForWorkload(points, ev.W)
	mat := ev.Est.TotalMaterializationTime(points)
	size := ev.Est.ViewsSize(points)
	plan := ev.Base.WithViews(size, proc, maint, mat)
	bill, err := plan.Bill()
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	return proc, bill, nil
}

// Item is one candidate view with its linearized marginal effects, the
// knapsack weights of Section 5.2. TimeSaved uses a query-to-view
// assignment (each query credits only its single best candidate) so that
// item effects add up without double counting; CostDelta linearizes
// billing (exact hours, slab storage rate at the dataset volume) — the
// final selection is always re-priced exactly with the full cost model.
type Item struct {
	Cand views.Candidate
	// TimeSaved is the monthly workload time this view saves (≥ 0).
	TimeSaved time.Duration
	// CostDelta is the period cost change if only this view is added:
	// storage + maintenance + amortized materialization − compute savings.
	// Negative means the view pays for itself.
	CostDelta money.Money
}

// Selection is a solved scenario: the chosen views with their exact
// re-priced time and bill.
type Selection struct {
	// Points are the selected views.
	Points []lattice.Point
	// Time is the exact monthly workload processing time (TprocessingQ).
	Time time.Duration
	// Bill is the exact period bill.
	Bill costmodel.Bill
	// Feasible reports whether the scenario's constraint is met.
	Feasible bool
	// Strategy names the solver that produced the selection.
	Strategy string
	// Degraded marks a selection returned early because the solver's
	// deadline expired: still bit-valid and exactly priced, but the
	// search stopped at its best incumbent instead of running to
	// convergence. Budget exhaustion does NOT set this — only a
	// wall-clock deadline does, so degraded results are the only
	// timing-dependent ones.
	Degraded bool
}

// TradeoffMode selects how MV3 mixes time and cost.
type TradeoffMode int

const (
	// RawTradeoff uses Formula 15 literally: α·T[h] + (1−α)·C[$].
	RawTradeoff TradeoffMode = iota
	// NormalizedTradeoff divides T and C by their no-view baselines first,
	// making α unit-free.
	NormalizedTradeoff
)

// Objective computes the MV3 objective value for a given time and bill.
func Objective(alpha float64, t time.Duration, bill costmodel.Bill, mode TradeoffMode, baseT time.Duration, baseBill costmodel.Bill) float64 {
	tv, cv := t.Hours(), bill.Total().Dollars()
	if mode == NormalizedTradeoff {
		if baseT > 0 {
			tv /= baseT.Hours()
		}
		if baseBill.Total() > 0 {
			cv /= baseBill.Total().Dollars()
		}
	}
	// The float64 conversions round each product before the add, so no port
	// fuses them into one multiply-add (scripts/nofma.sh).
	return float64(alpha*tv) + float64((1-alpha)*cv)
}

// SolveExhaustive enumerates every subset of candidates (n ≤ 20), prices
// each exactly, and returns the best selection under the given objective
// among those satisfying the constraint. If no subset is feasible the
// best-objective infeasible subset is returned with Feasible=false.
// It is the optimum the solvers' answers are measured against.
func (ev *Evaluator) SolveExhaustive(
	cands []views.Candidate,
	objective func(time.Duration, costmodel.Bill) float64,
	constraint func(time.Duration, costmodel.Bill) bool,
) (Selection, error) {
	if len(cands) > 20 {
		return Selection{}, fmt.Errorf("optimizer: exhaustive search over %d candidates refused (max 20)", len(cands))
	}
	if objective == nil {
		return Selection{}, fmt.Errorf("optimizer: objective required")
	}
	var (
		bestFeasible   *Selection
		bestInfeasible *Selection
		bestFeasObj    float64
		bestInfObj     float64
	)
	n := len(cands)
	pts := make([]lattice.Point, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		pts = pts[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				pts = append(pts, cands[i].Point)
			}
		}
		t, bill, err := ev.Evaluate(pts)
		if err != nil {
			return Selection{}, err
		}
		obj := objective(t, bill)
		ok := constraint == nil || constraint(t, bill)
		sel := Selection{
			Points:   append([]lattice.Point(nil), pts...),
			Time:     t,
			Bill:     bill,
			Feasible: ok,
			Strategy: "exhaustive",
		}
		if ok {
			if bestFeasible == nil || obj < bestFeasObj {
				s := sel
				bestFeasible, bestFeasObj = &s, obj
			}
		} else if bestInfeasible == nil || obj < bestInfObj {
			s := sel
			bestInfeasible, bestInfObj = &s, obj
		}
	}
	if bestFeasible != nil {
		return *bestFeasible, nil
	}
	return *bestInfeasible, nil
}
