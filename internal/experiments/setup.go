// Package experiments reproduces the paper's evaluation (Section 6):
// scenarios MV1, MV2 and MV3 over sales workloads of 3, 5 and 10 queries
// (Figure 5, Tables 6–8), plus golden reproductions of the nine worked
// examples and the introduction's motivating example.
//
// Calibration. The paper ran a one-shot 10 GB workload on a 5-VM
// Hadoop/Pig cluster with 2012 AWS prices. This harness keeps those
// constants — 10 GB dataset, 5 small instances, Tables 2–4 tariffs, ≈0.2 h
// for a full-scan query when 2 small instances are used (50 GB/h) — and
// makes two regimes explicit that the paper leaves implicit:
//
//   - OneShot: each query runs once, views are maintained 5× per period at
//     near-full-recomputation cost (the running example's 5 h maintenance
//     vs 1 h materialization ratio). Views cost more than they save in
//     pure dollars, so MV1's budget genuinely binds — this regime drives
//     the Figure 5(a)/Table 6 reproduction.
//   - Recurring: the workload runs daily over a billed month with weekly
//     incremental maintenance. Views pay for themselves, so lower bills
//     under a response-time cap emerge — this regime drives Figure
//     5(b)/Table 7 and the MV3 tradeoffs of Figure 5(c,d)/Table 8.
//
// Billing granularity is per-minute in both regimes so that sub-hour
// differences register on Figure-5-sized dollar amounts (the paper plots
// budgets of $0.8–$2.4, far below one 5-instance hour block).
package experiments

import (
	"fmt"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// Regime fixes the workload recurrence and maintenance intensity.
type Regime struct {
	Name string
	// Frequency is query executions per billed month.
	Frequency int
	// MaintenanceRuns is maintenance windows per month.
	MaintenanceRuns int
	// UpdateRatio is the delta volume per run as a fraction of the base.
	UpdateRatio float64
}

// OneShot is the paper's measured setting: each query once, heavyweight
// maintenance (5 near-full recomputations, matching the running example's
// maintenance:materialization ratio of 5 h : 1 h).
func OneShot() Regime {
	return Regime{Name: "one-shot", Frequency: 1, MaintenanceRuns: 5, UpdateRatio: 0.93}
}

// Recurring is the pay-as-you-go regime the cost models address: daily
// workload, weekly incremental maintenance over 20% daily-ish churn.
func Recurring() Regime {
	return Regime{Name: "recurring", Frequency: 30, MaintenanceRuns: 4, UpdateRatio: 0.20}
}

// Experiment-wide constants (Section 6.1 analogues).
const (
	// FactRows models the 10 GB extract at 50 B/row.
	FactRows = 200_000_000
	// FleetSize is the paper's 5 virtual machines.
	FleetSize = 5
	// JobOverhead is the Hadoop job startup floor.
	JobOverhead = 2 * time.Minute
	// CandidateBudget is how many candidate views the pre-selection step
	// (the "existing algorithm [8]") hands to the knapsack.
	CandidateBudget = 8
)

// Setup is one fully wired experimental configuration.
type Setup struct {
	Regime     Regime
	NumQueries int
	Lat        *lattice.Lattice
	Cl         *cluster.Cluster
	Est        *views.Estimator
	W          workload.Workload
	Ev         *optimizer.Evaluator
	Cands      []views.Candidate
	// sess is the Section 5 solver bound to Ev and Cands; the Run*
	// reproductions solve on it.
	sess *optimizer.KernelSession
}

// NewSetup wires the experimental configuration for a workload size.
func NewSetup(nQueries int, regime Regime) (*Setup, error) {
	l, err := lattice.New(schema.Sales(), FactRows)
	if err != nil {
		return nil, err
	}
	prov := pricing.AWS2012()
	prov.Compute.Granularity = units.BillPerMinute
	cl, err := cluster.New(prov, "small", FleetSize)
	if err != nil {
		return nil, err
	}
	cl.JobOverhead = JobOverhead
	est := views.NewEstimator(l, cl)
	est.MaintenanceRuns = regime.MaintenanceRuns
	est.UpdateRatio = regime.UpdateRatio

	w, err := workload.Sales(l, nQueries)
	if err != nil {
		return nil, err
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = regime.Frequency
	}
	egress, err := w.ResultBytes(l)
	if err != nil {
		return nil, err
	}
	base := costmodel.Plan{
		Cluster:       cl,
		Months:        1,
		DatasetSize:   10 * units.GB,
		MonthlyEgress: egress,
	}
	ev, err := optimizer.NewEvaluator(est, w, base)
	if err != nil {
		return nil, err
	}
	cands, err := views.GenerateCandidates(l, w, CandidateBudget)
	if err != nil {
		return nil, err
	}
	sess, err := optimizer.NewSession(ev, cands)
	if err != nil {
		return nil, err
	}
	return &Setup{
		Regime:     regime,
		NumQueries: nQueries,
		Lat:        l,
		Cl:         cl,
		Est:        est,
		W:          w,
		Ev:         ev,
		Cands:      cands,
		sess:       sess,
	}, nil
}

// Baseline returns the no-view time and bill.
func (s *Setup) Baseline() (time.Duration, costmodel.Bill, error) {
	return s.Ev.Evaluate(nil)
}

// ViewNames renders selected points.
func (s *Setup) ViewNames(pts []lattice.Point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = s.Lat.Name(p)
	}
	return out
}

// PaperBudgets are the MV1 budget limits of Table 6, interpreted as the
// compute slack granted on top of the configuration's fixed baseline bill
// (the paper's cluster had no storage/egress line items on its Figure 5
// axes; ours do, so the fixed part is added back to keep the knapsack's
// headroom at the paper's scale).
var PaperBudgets = map[int]money.Money{
	3:  money.MustParse("$0.80"),
	5:  money.MustParse("$1.20"),
	10: money.MustParse("$2.40"),
}

// PaperTimeLimitFraction positions the MV2 response-time limits relative
// to the no-view workload time: the paper's limits (0.57 h for a 0.6 h
// 3-query baseline, 0.99 h for 1.0 h, 2.24 h for ≈2 h) sit just below the
// no-view time, forcing materialization while leaving the choice of views
// to the cost objective.
const PaperTimeLimitFraction = 0.95

// MV1Budget computes the budget for a workload size: the paper's limit
// plus this configuration's fixed (non-compute) baseline costs.
func (s *Setup) MV1Budget() (money.Money, error) {
	paper, ok := PaperBudgets[s.NumQueries]
	if !ok {
		return 0, fmt.Errorf("experiments: no paper budget for %d queries", s.NumQueries)
	}
	_, bill, err := s.Baseline()
	if err != nil {
		return 0, err
	}
	fixed := bill.Total().Sub(bill.Compute.Total())
	return paper.Add(fixed), nil
}

// MV2Limit computes the response-time limit for the setup.
func (s *Setup) MV2Limit() (time.Duration, error) {
	t, _, err := s.Baseline()
	if err != nil {
		return 0, err
	}
	return time.Duration(float64(t) * PaperTimeLimitFraction), nil
}

// WorkloadSizes are the paper's three workload sizes.
var WorkloadSizes = []int{3, 5, 10}
