// Package costmodel implements the paper's cost models verbatim:
//
//   - Formula 1: C = Cc + Cs + Ct
//   - Formulas 2–3: data transfer cost (free ingress, tiered egress)
//   - Formula 4: computing cost of a query workload on rented instances
//   - Formula 5: interval-based tiered storage cost
//   - Formula 6: Cc = CprocessingQ + CmaintenanceV + CmaterializationV
//   - Formulas 7–8: view materialization time and cost
//   - Formulas 9–10: query processing time and cost with views
//   - Formulas 11–12: view maintenance time and cost
//
// The Plan type gathers one configuration's parameters (dataset size, view
// set size, monthly processing/maintenance hours, one-off materialization
// hours, monthly egress) and prices it into a Bill.
package costmodel

import (
	"fmt"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/simtime"
	"vmcloud/internal/units"
)

// TransferCost prices one month's query-result egress (Formula 3: the
// tiered rate applies to the monthly transferred volume; inputs are free
// under the paper's Amazon-like model).
func TransferCost(p pricing.Provider, monthlyEgress units.DataSize) money.Money {
	return p.Transfer.EgressCost(monthlyEgress)
}

// StorageCost prices a storage timeline (Formula 5): for each constant-size
// interval, the slab rate cs(DS) of the interval's volume times the volume
// times the interval length in months.
func StorageCost(p pricing.Provider, tl simtime.Timeline) (money.Money, error) {
	// Fast path for the dominant case — no volume-change events, one
	// constant interval [0, Horizon). Evaluator.Evaluate bills through
	// here for every subset an oracle prices, and slicing a
	// single-interval timeline through Intervals costs sort and slice
	// allocations for nothing. Invalid timelines fall through so error
	// behavior is unchanged.
	if len(tl.Events) == 0 && tl.Horizon >= 0 && tl.Initial >= 0 {
		if tl.Horizon == 0 {
			return 0, nil
		}
		return p.Storage.CostFor(tl.Initial, float64(tl.Horizon)), nil
	}
	ivs, err := tl.Intervals()
	if err != nil {
		return 0, err
	}
	var total money.Money
	for _, iv := range ivs {
		total = total.Add(p.Storage.CostFor(iv.Size, float64(iv.Length())))
	}
	return total, nil
}

// Breakdown decomposes the computing cost per Formula 6.
type Breakdown struct {
	// Processing is CprocessingQ (Formula 10), over the whole period.
	Processing money.Money
	// Maintenance is CmaintenanceV (Formula 12), over the whole period.
	Maintenance money.Money
	// Materialization is CmaterializationV (Formula 8), paid once.
	Materialization money.Money
}

// Total is Formula 6.
func (b Breakdown) Total() money.Money {
	return money.Sum(b.Processing, b.Maintenance, b.Materialization)
}

// Bill is a fully priced configuration.
type Bill struct {
	// Compute is Cc decomposed (Formula 6).
	Compute Breakdown
	// Storage is Cs (Formula 5).
	Storage money.Money
	// Transfer is Ct (Formula 3).
	Transfer money.Money
}

// Total is Formula 1: C = Cc + Cs + Ct.
func (b Bill) Total() money.Money {
	return money.Sum(b.Compute.Total(), b.Storage, b.Transfer)
}

// String renders the bill compactly.
func (b Bill) String() string {
	return fmt.Sprintf("total %v (compute %v [proc %v, maint %v, mat %v], storage %v, transfer %v)",
		b.Total(), b.Compute.Total(), b.Compute.Processing, b.Compute.Maintenance,
		b.Compute.Materialization, b.Storage, b.Transfer)
}

// Plan is one priceable configuration: a cluster, a billing period, data
// volumes and the time components of the paper's formulas.
type Plan struct {
	// Cluster supplies instance pricing and fleet size (c(IC) and nbIC).
	Cluster *cluster.Cluster
	// Months is the billing period ts (≥ 0). Monthly quantities scale by it.
	Months float64
	// DatasetSize is s(DS), the base data at rest.
	DatasetSize units.DataSize
	// ViewsSize is the duplicated data added by materialized views
	// (Section 4.3); stored for the whole period alongside the dataset.
	ViewsSize units.DataSize
	// MonthlyProcessing is TprocessingQ per month (Formula 9).
	MonthlyProcessing time.Duration
	// MonthlyMaintenance is TmaintenanceV per month (Formula 11).
	MonthlyMaintenance time.Duration
	// Materialization is TmaterializationV, spent once at period start
	// (Formula 7).
	Materialization time.Duration
	// MonthlyEgress is Σ s(Ri) per month (Formula 3).
	MonthlyEgress units.DataSize
}

// Validate checks the plan's parameters.
func (p Plan) Validate() error {
	if p.Cluster == nil {
		return fmt.Errorf("costmodel: plan has no cluster")
	}
	if p.Months < 0 {
		return fmt.Errorf("costmodel: negative billing period %g", p.Months)
	}
	if p.DatasetSize < 0 || p.ViewsSize < 0 || p.MonthlyEgress < 0 {
		return fmt.Errorf("costmodel: negative data volume in plan")
	}
	if p.MonthlyProcessing < 0 || p.MonthlyMaintenance < 0 || p.Materialization < 0 {
		return fmt.Errorf("costmodel: negative time component in plan")
	}
	return nil
}

// Bill prices the plan (Formulas 1–12).
func (p Plan) Bill() (Bill, error) {
	if err := p.Validate(); err != nil {
		return Bill{}, err
	}
	var b Bill

	// Compute (Formula 6): each monthly quantity is billed per month at
	// the provider's rounding (Example 2 rounds the monthly total up), the
	// one-off materialization once. A fractional period bills the
	// fraction.
	b.Compute.Processing = p.Cluster.ComputeCost(p.MonthlyProcessing).MulFloat(p.Months)
	b.Compute.Maintenance = p.Cluster.ComputeCost(p.MonthlyMaintenance).MulFloat(p.Months)
	b.Compute.Materialization = p.Cluster.ComputeCost(p.Materialization)

	// Storage (Formula 5): dataset + views at rest for the whole period,
	// one constant-volume interval.
	tl := simtime.Timeline{Initial: p.DatasetSize + p.ViewsSize, Horizon: simtime.Months(p.Months)}
	var err error
	b.Storage, err = StorageCost(p.Cluster.Provider, tl)
	if err != nil {
		return Bill{}, err
	}

	// Transfer (Formula 3): monthly egress priced at the tiered rate, per
	// month.
	b.Transfer = TransferCost(p.Cluster.Provider, p.MonthlyEgress).MulFloat(p.Months)
	return b, nil
}

// WithViews returns a copy of the plan updated for a selected view set:
// view storage, processing/maintenance/materialization times.
func (p Plan) WithViews(viewsSize units.DataSize, processing, maintenance, materialization time.Duration) Plan {
	q := p
	q.ViewsSize = viewsSize
	q.MonthlyProcessing = processing
	q.MonthlyMaintenance = maintenance
	q.Materialization = materialization
	return q
}
