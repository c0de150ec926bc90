// Package scaling explores the tradeoff the paper's introduction frames —
// "finding the best trade-off between raw scalability (i.e., increasing
// resources) and materialized views under budget constraints" — by
// sweeping fleet sizes and, for each fleet, comparing the no-view
// configuration against the view set the optimizer recommends.
//
// Scaling out cuts wall-clock time roughly linearly but leaves the billed
// instance-hours for scan work unchanged (the same bytes get scanned), and
// it multiplies the per-job overhead cost by the fleet size. Materialized
// views cut the bytes themselves. The sweep makes that asymmetry, and the
// crossover points, visible.
package scaling

import (
	"fmt"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/workload"
)

// Option is one provisioning alternative.
type Option struct {
	// Instances is the fleet size.
	Instances int
	// WithViews reports whether the optimizer's view set is materialized.
	WithViews bool
	// Views counts the materialized views.
	Views int
	// Time is the monthly workload wall-clock time.
	Time time.Duration
	// Bill is the exact period bill.
	Bill costmodel.Bill
}

// Config parameterizes a sweep. Zero values inherit the defaults of
// core.Config.
type Config struct {
	// Base is the advisory configuration; its Instances field is ignored
	// (the sweep sets it).
	Base core.Config
	// FleetSizes are the instance counts to evaluate; defaults to
	// 1, 2, 4, 8, 16.
	FleetSizes []int
	// Alpha is the MV3 weight used to pick each fleet's view set;
	// defaults to 0.5.
	Alpha float64
}

// Sweep evaluates every fleet size with and without views. Results come in
// pairs: without-views first, then with-views, per fleet size.
func Sweep(cfg Config, w workload.Workload) ([]Option, error) {
	sizes := cfg.FleetSizes
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8, 16}
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	// Reject a bad size before building anything.
	for _, nb := range sizes {
		if nb <= 0 {
			return nil, fmt.Errorf("scaling: non-positive fleet size %d", nb)
		}
	}
	// Fleet size is a tariff parameter: the lattice, candidates and
	// kernel are built once, and each size is one re-pricing of them.
	c := cfg.Base
	c.Workload = w
	sh, err := core.NewShared(c)
	if err != nil {
		return nil, err
	}
	prov := pricing.AWS2012()
	if c.Provider != nil {
		prov = *c.Provider
	}
	if c.Granularity != nil {
		prov.Compute.Granularity = *c.Granularity
	}
	var out []Option
	for _, nb := range sizes {
		adv, err := sh.Advisor(prov, c.InstanceType, nb)
		if err != nil {
			return nil, err
		}
		sess := adv.Session()
		baseT, baseBill, err := sess.Base()
		if err != nil {
			return nil, err
		}
		out = append(out, Option{Instances: nb, WithViews: false, Time: baseT, Bill: baseBill})

		sel, err := sess.SolveMV3(alpha, optimizer.NormalizedTradeoff)
		if err != nil {
			return nil, err
		}
		out = append(out, Option{
			Instances: nb,
			WithViews: true,
			Views:     len(sel.Points),
			Time:      sel.Time,
			Bill:      sel.Bill,
		})
	}
	return out, nil
}

// CheapestMeeting returns the lowest-bill option whose workload time meets
// the limit, and whether any option qualifies.
func CheapestMeeting(opts []Option, limit time.Duration) (Option, bool) {
	var best Option
	found := false
	for _, o := range opts {
		if o.Time > limit {
			continue
		}
		if !found || o.Bill.Total() < best.Bill.Total() {
			best, found = o, true
		}
	}
	return best, found
}

// FastestWithin returns the lowest-time option whose bill fits the budget,
// and whether any option qualifies.
func FastestWithin(opts []Option, budget money.Money) (Option, bool) {
	var best Option
	found := false
	for _, o := range opts {
		if o.Bill.Total() > budget {
			continue
		}
		if !found || o.Time < best.Time {
			best, found = o, true
		}
	}
	return best, found
}

// TypedOption extends Option with the instance type, for sweeps across
// both fleet size and configuration (the paper's future-work note on
// "multiple, variable instances", Section 4).
type TypedOption struct {
	Option
	InstanceType string
}

// SweepTypes evaluates every (instance type × fleet size) combination with
// and without views.
func SweepTypes(cfg Config, types []string, w workload.Workload) ([]TypedOption, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("scaling: no instance types given")
	}
	var out []TypedOption
	for _, ty := range types {
		c := cfg
		c.Base.InstanceType = ty
		opts, err := Sweep(c, w)
		if err != nil {
			return nil, fmt.Errorf("scaling: type %s: %w", ty, err)
		}
		for _, o := range opts {
			out = append(out, TypedOption{Option: o, InstanceType: ty})
		}
	}
	return out, nil
}

// CheapestTypedMeeting returns the lowest-bill typed option meeting the
// limit.
func CheapestTypedMeeting(opts []TypedOption, limit time.Duration) (TypedOption, bool) {
	var best TypedOption
	found := false
	for _, o := range opts {
		if o.Time > limit {
			continue
		}
		if !found || o.Bill.Total() < best.Bill.Total() {
			best, found = o, true
		}
	}
	return best, found
}

// Crossover locates the smallest fleet size at which the no-view
// configuration first meets the limit, alongside the smallest with-view
// fleet doing so — the "how much hardware do views replace" question.
func Crossover(opts []Option, limit time.Duration) (withoutViews, withViews int) {
	withoutViews, withViews = -1, -1
	for _, o := range opts {
		if o.Time > limit {
			continue
		}
		if o.WithViews {
			if withViews == -1 || o.Instances < withViews {
				withViews = o.Instances
			}
		} else if withoutViews == -1 || o.Instances < withoutViews {
			withoutViews = o.Instances
		}
	}
	return withoutViews, withViews
}
