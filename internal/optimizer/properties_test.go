package optimizer

import (
	"testing"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
)

// MV3 selection is monotone in α under the raw tradeoff: increasing the
// weight on time can only ADD views (every view saves time; paying views
// enter once α values their savings enough; self-paying views are always
// in).
func TestMV3SelectionMonotoneInAlpha(t *testing.T) {
	ev, cands := fixture(t, 10)
	sess := session(t, ev, cands)
	alphas := []float64{0, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1}
	var prev map[string]bool
	for _, alpha := range alphas {
		sel, err := sess.SolveMV3(alpha, RawTradeoff)
		if err != nil {
			t.Fatal(err)
		}
		cur := map[string]bool{}
		for _, p := range sel.Points {
			cur[ev.Est.Lat.Name(p)] = true
		}
		if prev != nil {
			for name := range prev {
				if !cur[name] {
					t.Errorf("α=%g dropped view %s selected at a smaller α", alpha, name)
				}
			}
		}
		prev = cur
	}
}

// The exact evaluator is monotone: supersets of views never increase the
// workload time.
func TestEvaluateTimeMonotoneInViewSet(t *testing.T) {
	ev, cands := fixture(t, 10)
	var pts []lattice.Point
	prevTime := time.Duration(1<<62 - 1)
	for _, c := range cands {
		pts = append(pts, c.Point)
		tm, _, err := ev.Evaluate(pts)
		if err != nil {
			t.Fatal(err)
		}
		if tm > prevTime {
			t.Errorf("adding %v increased time to %v", ev.Est.Lat.Name(c.Point), tm)
		}
		prevTime = tm
	}
}

// MV1 budget monotonicity: a larger budget never yields a slower selection.
func TestMV1MonotoneInBudget(t *testing.T) {
	ev, cands := fixture(t, 10)
	sess := session(t, ev, cands)
	_, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := time.Duration(1<<62 - 1)
	for _, extra := range []float64{0, 0.25, 0.5, 1, 2, 4} {
		budget := baseBill.Total().Add(money.FromDollars(extra))
		sel, err := sess.SolveMV1(budget)
		if err != nil {
			t.Fatal(err)
		}
		if !sel.Feasible {
			t.Fatalf("budget %v infeasible", budget)
		}
		if sel.Time > prev+time.Second {
			t.Errorf("budget +$%.2f slowed the selection: %v after %v", extra, sel.Time, prev)
		}
		if sel.Time < prev {
			prev = sel.Time
		}
	}
}

// MV2 limit monotonicity: a tighter limit never yields a cheaper bill
// (among feasible selections).
func TestMV2MonotoneInLimit(t *testing.T) {
	ev, cands := fixture(t, 10)
	sess := session(t, ev, cands)
	baseT := ev.Est.WorkloadTime(ev.W, nil)
	type point struct {
		frac float64
		cost float64
	}
	var pts []point
	for _, frac := range []float64{0.95, 0.8, 0.6, 0.45} {
		limit := time.Duration(float64(baseT) * frac)
		sel, err := sess.SolveMV2(limit)
		if err != nil {
			t.Fatal(err)
		}
		if !sel.Feasible {
			continue
		}
		pts = append(pts, point{frac, sel.Bill.Total().Dollars()})
	}
	if len(pts) < 2 {
		t.Skip("not enough feasible limits to compare")
	}
	for i := 1; i < len(pts); i++ {
		// Allow a small tolerance: the DP scales gains, so equal-cost plans
		// can flip between near-identical view subsets.
		if pts[i].cost < pts[i-1].cost*0.99 {
			t.Errorf("tighter limit (%.2f×) got cheaper: $%.4f after $%.4f",
				pts[i].frac, pts[i].cost, pts[i-1].cost)
		}
	}
}

// The bill of any selection is internally consistent: total = parts.
func TestBillDecompositionConsistent(t *testing.T) {
	ev, cands := fixture(t, 5)
	sel, err := session(t, ev, cands).SolveMV3(0.5, RawTradeoff)
	if err != nil {
		t.Fatal(err)
	}
	b := sel.Bill
	want := b.Compute.Processing.
		Add(b.Compute.Maintenance).
		Add(b.Compute.Materialization).
		Add(b.Storage).
		Add(b.Transfer)
	if b.Total() != want {
		t.Errorf("bill total %v != sum of parts %v", b.Total(), want)
	}
}

// Item cost deltas are CONSERVATIVE bounds on the exact single-view
// deltas: the assignment model credits each query to only its single best
// candidate, while the exact evaluator credits a lone view with every
// query it answers. So exact Δ ≤ linear Δ (up to billing rounding) — the
// knapsack never overpromises savings.
func TestItemDeltasAreConservative(t *testing.T) {
	ev, cands := fixture(t, 10)
	items, err := ev.BuildItems(cands)
	if err != nil {
		t.Fatal(err)
	}
	_, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		_, bill, err := ev.Evaluate([]lattice.Point{it.Cand.Point})
		if err != nil {
			t.Fatal(err)
		}
		exact := bill.Total().Sub(baseBill.Total()).Dollars()
		linear := it.CostDelta.Dollars()
		// Per-minute rounding envelope on a 5-instance fleet: a few cents.
		if exact > linear+0.10 {
			t.Errorf("view %v: exact Δ$%.4f exceeds linear bound Δ$%.4f",
				ev.Est.Lat.Name(it.Cand.Point), exact, linear)
		}
	}
}
