package core

import (
	"slices"
	"testing"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// TestTieRegimePicksMatchEvaluator sweeps the sizes where sales cuboids
// tie on rows below the base table (fact_rows up to a few hundred), under
// both maintenance policies, and holds every knapsack selection's
// (Time, Bill) to the oracle twice: Evaluate of its points as the session
// listed them, and of the same points in candidate order. The session
// prices a pick on its engine, which routes a query by answering-list
// order (rows, then candidate index); Evaluate routes by the order it is
// handed. Equal bills here mean the served price depends only on which
// views are selected.
func TestTieRegimePicksMatchEvaluator(t *testing.T) {
	var solves, tied int
	for _, policy := range []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance} {
		for rows := int64(2); rows <= 400; rows++ {
			for n := 1; n <= 10; n++ {
				w, err := workload.SalesPrefix(n)
				if err != nil {
					t.Fatal(err)
				}
				adv, err := New(Config{FactRows: rows, Workload: w, MaintenancePolicy: policy})
				if err != nil {
					t.Fatal(err)
				}
				sess := adv.Session()
				cand := func(p lattice.Point) int {
					return slices.IndexFunc(adv.Candidates, func(c views.Candidate) bool { return c.Point.Equal(p) })
				}
				check := func(what string, sel optimizer.Selection, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%v rows=%d n=%d %s: %v", policy, rows, n, what, err)
					}
					solves++
					seen := map[int64]bool{}
					for _, p := range sel.Points {
						r := adv.Candidates[cand(p)].Rows
						if seen[r] {
							tied++
							break
						}
						seen[r] = true
					}
					sorted := slices.Clone(sel.Points)
					slices.SortFunc(sorted, func(a, b lattice.Point) int { return cand(a) - cand(b) })
					for _, pts := range [][]lattice.Point{sel.Points, sorted} {
						wantT, wantBill, err := adv.Ev.Evaluate(pts)
						if err != nil {
							t.Fatal(err)
						}
						if sel.Time != wantT || sel.Bill != wantBill {
							t.Fatalf("%v rows=%d n=%d %s: session priced %v at (%v, %v), Evaluate gives (%v, %v)",
								policy, rows, n, what, pts, sel.Time, sel.Bill.Total(), wantT, wantBill.Total())
						}
					}
				}
				baseT, baseBill, err := sess.Base()
				if err != nil {
					t.Fatal(err)
				}
				allT, allBill, err := adv.Ev.Evaluate(views.Points(adv.Candidates))
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := min(baseBill.Total(), allBill.Total()), max(baseBill.Total(), allBill.Total())
				for _, f := range []int64{0, 1, 2, 4} {
					budget := lo.Add(money.Money(int64(hi.Sub(lo)) * f / 4))
					sel, err := sess.SolveMV1(budget)
					check("mv1 "+budget.String(), sel, err)
				}
				for _, f := range []time.Duration{0, 1, 2} {
					limit := allT + (baseT-allT)*f/2
					sel, err := sess.SolveMV2(limit)
					check("mv2 "+limit.String(), sel, err)
				}
				for _, alpha := range []float64{0, 0.3, 0.7, 1} {
					sel, err := sess.SolveMV3(alpha, optimizer.RawTradeoff)
					check("mv3", sel, err)
				}
			}
		}
	}
	t.Logf("%d selections, %d with two views tied on rows", solves, tied)
	if tied == 0 {
		t.Fatal("no selection holds two views tied on rows: the sweep misses the tie regime")
	}
}
