package optimizer

import (
	"math"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/simtime"
	"vmcloud/internal/units"
)

// compiledBill is Plan.Bill (Formulas 1–12) for one tariff binding, with
// everything a selection cannot change derived once at bind: the hourly
// price and fleet size, the billing granularity and period, the storage
// tier table and horizon, and the egress charge. What is left per call
// is the arithmetic on the four view-dependent aggregates. The served
// bill — Score, the KernelSession's exact evaluations, and Probe's time
// and total (outcome) — is priced here; Plan.Bill, through Evaluator.Evaluate, stays the
// formula-by-formula oracle it is held to bit for bit
// (FuzzIncrementalMoves, TestCompiledBillMatchesPlanBill).
type compiledBill struct {
	// plan is the evaluator's validated plan template; it prices the
	// rejection of overflowed aggregates.
	plan *costmodel.Plan

	pph    money.Money // c(IC): the instance's price per billed hour
	gran   units.BillingGranularity
	fleet  int64 // nbIC
	months float64
	// monthly prices processing and maintenance, once materialization.
	monthly, once computeTerm

	dataset units.DataSize
	storage pricing.TierTable
	horizon simtime.Months

	transfer money.Money // Formula 3: the one term no selection changes
}

// maxExact is the largest integer below which every float64 integer is
// exact, 2⁵³ − 1.
const maxExact = 1<<53 - 1

// computeTerm is one compute component of the bill: Cluster.ComputeCost
// of a duration, times the billing period when scaled. Under hourly
// billing with a whole number of months it has an integer form, h·coef
// for h billed hours: below maxHours every intermediate of the float
// path — price × hours, × fleet, × months — is an integer under 2⁵³, so
// each rounding is exact and the product is the float path's value.
type computeTerm struct {
	scaled   bool  // multiplied by the billing period (the monthly terms)
	coef     int64 // price × fleet (× months when scaled)
	maxHours int64 // the largest h the integer form prices; -1: none
}

// compileBill derives the bill of an evaluator's plan template. The plan
// was validated when its evaluator was built.
func compileBill(plan *costmodel.Plan) compiledBill {
	cl := plan.Cluster
	c := compiledBill{
		plan:     plan,
		pph:      cl.Instance.PricePerHour,
		gran:     cl.Provider.Compute.Granularity,
		fleet:    int64(cl.NbInstances),
		months:   plan.Months,
		dataset:  plan.DatasetSize,
		storage:  cl.Provider.Storage.Table,
		horizon:  simtime.Months(plan.Months),
		transfer: costmodel.TransferCost(cl.Provider, plan.MonthlyEgress).MulFloat(plan.Months),
	}
	c.monthly = c.term(true)
	c.once = c.term(false)
	return c
}

// term selects a compute term's integer form from what the tariff and
// period show: hourly billing, non-negative price and fleet, and, for a
// scaled term, a whole non-negative number of months.
func (c *compiledBill) term(scaled bool) computeTerm {
	t := computeTerm{scaled: scaled, maxHours: -1}
	if c.gran != units.BillPerHour || c.pph < 0 || c.fleet < 0 {
		return t
	}
	coef, ok := exactProduct(int64(c.pph), c.fleet)
	if scaled {
		m := c.months
		if !(m >= 0 && m <= maxExact && m == math.Trunc(m)) {
			return t
		}
		coef, ok = exactProduct(coef, int64(m))
	}
	switch {
	case !ok:
	case coef == 0:
		// A zero price, fleet or period bills every duration at 0 on
		// the float path too.
		t.coef, t.maxHours = 0, math.MaxInt64
	default:
		t.coef, t.maxHours = coef, maxExact/coef
	}
	return t
}

// exactProduct returns a·b for a, b ≥ 0 when it is at most maxExact
// (ok is false, and a·b is not computed, otherwise or after an earlier
// failure folded into a).
func exactProduct(a, b int64) (int64, bool) {
	if a < 0 || a > maxExact || (b != 0 && a > maxExact/b) {
		return -1, false
	}
	return a * b, true
}

// price bills a subset from its view-dependent aggregates — monthly
// processing, monthly maintenance, one-off materialization and stored
// view bytes — and returns the workload time (the processing aggregate)
// beside the bill, as Evaluator.Evaluate does.
//
//mvlint:hotpath
func (c *compiledBill) price(proc, maint, mat time.Duration, size units.DataSize) (time.Duration, costmodel.Bill, error) {
	storage, err := c.checked(proc, maint, mat, size)
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	var b costmodel.Bill
	b.Compute.Processing = c.compute(&c.monthly, proc)
	b.Compute.Maintenance = c.compute(&c.monthly, maint)
	b.Compute.Materialization = c.compute(&c.once, mat)
	b.Storage = storage
	b.Transfer = c.transfer
	return proc, b, nil
}

// outcome is price reduced to what a Scenario ranks: the workload time
// and the bill's total (Formula 1), summed as Bill.Total sums the terms.
//
//mvlint:hotpath
func (c *compiledBill) outcome(proc, maint, mat time.Duration, size units.DataSize) (Outcome, error) {
	storage, err := c.checked(proc, maint, mat, size)
	if err != nil {
		return Outcome{}, err
	}
	compute := money.Sum(c.compute(&c.monthly, proc), c.compute(&c.monthly, maint), c.compute(&c.once, mat))
	return Outcome{proc, money.Sum(compute, storage, c.transfer)}, nil
}

// checked is the storage term of a subset's aggregates, and Plan.Bill's
// error for aggregates a move overflowed.
//
//mvlint:hotpath
func (c *compiledBill) checked(proc, maint, mat time.Duration, size units.DataSize) (money.Money, error) {
	if size < 0 || proc < 0 || maint < 0 || mat < 0 {
		_, err := c.plan.WithViews(size, proc, maint, mat).Bill()
		return 0, err
	}
	return c.store(c.dataset + size)
}

// compute is one compute term of a non-negative duration.
//
//mvlint:hotpath
func (c *compiledBill) compute(t *computeTerm, d time.Duration) money.Money {
	if t.maxHours >= 0 {
		h := int64(d / time.Hour) // BillPerHour: every started hour
		if d%time.Hour != 0 {
			h++
		}
		if h <= t.maxHours {
			return money.Money(h * t.coef)
		}
	}
	m := c.pph.MulFloat(c.gran.BillableHours(d)).MulInt(c.fleet)
	if t.scaled {
		m = m.MulFloat(c.months)
	}
	return m
}

// store is StorageCost of the stored volume held for the whole period
// (Formula 5): one constant-volume interval billed by the storage tier
// table. A volume the aggregates overflowed is rejected with Plan.Bill's
// error.
//
//mvlint:hotpath
func (c *compiledBill) store(volume units.DataSize) (money.Money, error) {
	if volume < 0 {
		_, err := simtime.Timeline{Initial: volume, Horizon: c.horizon}.Intervals()
		return 0, err
	}
	return c.hold(volume, c.horizon), nil
}

// hold is StorageTariff.CostFor: size held for months. One month held
// is the cost itself: below 2⁵² in magnitude MulFloat(1) converts the
// cost to a float64 exactly, multiplies by 1 exactly and finds no
// fraction to round, so the multiply is skipped there and only there.
//
//mvlint:hotpath
func (c *compiledBill) hold(size units.DataSize, months simtime.Months) money.Money {
	if months <= 0 {
		return 0
	}
	cost := c.storage.Cost(size)
	if months == 1 && cost < 1<<52 && cost > -1<<52 {
		return cost
	}
	return cost.MulFloat(float64(months))
}
