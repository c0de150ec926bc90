// Scale-out vs views: the paper's introductory framing made concrete.
// For each fleet size, compare the no-view configuration against the
// optimizer's view set, then answer the operational question: to bring the
// daily workload under a deadline, is it cheaper to rent more instances or
// to materialize views?
//
// One vmcloud.Compare call over the fleet sizes answers it: every
// recommendation carries the configuration's bill and time without views
// (BaselineTime/BaselineBill) beside the ones with its selection.
package main

import (
	"fmt"
	"log"
	"time"

	"vmcloud"
	"vmcloud/internal/report"
)

// option is one provisioning alternative: a fleet with or without the
// optimizer's views.
type option struct {
	instances int
	withViews bool
	time      time.Duration
	bill      vmcloud.Money
}

func main() {
	l, err := vmcloud.NewLattice(vmcloud.SalesSchema(), 200_000_000)
	if err != nil {
		log.Fatal(err)
	}
	w, err := vmcloud.SalesWorkload(l, 10)
	if err != nil {
		log.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}

	cmp, err := vmcloud.Compare(vmcloud.CompareRequest{
		Config:     vmcloud.AdvisorConfig{Workload: w},
		Providers:  []vmcloud.Provider{vmcloud.AWS2012()},
		FleetSizes: []int{2, 5, 10, 20, 40},
		Scenarios:  []string{"mv3"},
	})
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("fleet sweep — 10-query sales workload, daily",
		"instances", "views", "workload time", "monthly bill")
	var opts []option
	for _, cr := range cmp.Configs {
		r, _ := cr.Result("mv3")
		sel := r.Selection
		t.AddRow(cr.Instances, "—", fmt.Sprintf("%.2fh", r.BaselineTime.Hours()), r.BaselineBill.Total())
		t.AddRow(cr.Instances, fmt.Sprintf("%d", len(sel.Points)), fmt.Sprintf("%.2fh", sel.Time.Hours()), sel.Bill.Total())
		opts = append(opts,
			option{cr.Instances, false, r.BaselineTime, r.BaselineBill.Total()},
			option{cr.Instances, true, sel.Time, sel.Bill.Total()})
	}
	fmt.Println(t)

	deadline := 16 * time.Hour
	fmt.Printf("Question: the month's workload must fit in %v of cluster time.\n\n", deadline)
	without, with := crossover(opts, deadline)
	if without > 0 {
		fmt.Printf("  scale-out answer: %d view-less instances\n", without)
	} else {
		fmt.Println("  scale-out answer: no swept fleet meets it without views")
	}
	if with > 0 {
		fmt.Printf("  views answer:     %d instances with materialized views\n", with)
	}
	if best, ok := cheapestMeeting(opts, deadline); ok {
		fmt.Printf("  cheapest overall: %d instances, views=%v, %v/month (%.2fh)\n",
			best.instances, best.withViews, best.bill, best.time.Hours())
	}
}

// crossover returns the smallest fleet meeting the limit without views
// and the smallest meeting it with them (-1 when none does): how much
// hardware the views replace.
func crossover(opts []option, limit time.Duration) (withoutViews, withViews int) {
	withoutViews, withViews = -1, -1
	for _, o := range opts {
		smallest := &withoutViews
		if o.withViews {
			smallest = &withViews
		}
		if o.time <= limit && (*smallest == -1 || o.instances < *smallest) {
			*smallest = o.instances
		}
	}
	return withoutViews, withViews
}

// cheapestMeeting returns the lowest-bill option whose workload time
// meets the limit, and whether any does.
func cheapestMeeting(opts []option, limit time.Duration) (best option, found bool) {
	for _, o := range opts {
		if o.time <= limit && (!found || o.bill < best.bill) {
			best, found = o, true
		}
	}
	return best, found
}
