package optimizer

import (
	"math/rand"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
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

// lawBreak names one law and the binding a move broke it on.
type lawBreak struct {
	term, tariff string
	policy       views.MaintenancePolicy
}

// addLaws walks Add moves on every catalog tariff under every billing
// granularity and both maintenance policies, and counts the moves that
// break each law. A law is a direction a term of Score may move in under
// Add:
//
//   - "proc": the workload time does not rise (routing is by rows, and a
//     view's size is its rows times the row width);
//   - "maint", "mat", "storage": the billed term does not fall.
//
// Half the bindings hold a dataset a little below the first storage
// bracket edge, so that the views' bytes cross it.
func addLaws(t *testing.T) (moves int, broken map[lawBreak]int) {
	t.Helper()
	broken = map[lawBreak]int{}
	l, err := lattice.New(schema.Sales(), 2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	grans := []units.BillingGranularity{units.BillPerHour, units.BillPerMinute, units.BillPerSecond}
	policies := []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, err := workload.Random(l, 3+rng.Intn(8), 30, seed)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := views.GenerateCandidates(l, w, 8)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := NewComparisonKernel(l, w, cands)
		if err != nil {
			t.Fatal(err)
		}
		egress, err := w.ResultBytes(l)
		if err != nil {
			t.Fatal(err)
		}
		var viewBytes units.DataSize
		for _, c := range cands {
			viewBytes += c.Size
		}
		for _, name := range pricing.ProviderNames() {
			for _, gran := range grans {
				for _, policy := range policies {
					prov, err := pricing.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					prov.Compute.Granularity = gran
					cl, err := cluster.New(prov, "small", 1+rng.Intn(8))
					if err != nil {
						t.Fatal(err)
					}
					est := views.NewEstimator(l, cl)
					est.MaintenanceRuns = rng.Intn(40)
					est.Policy = policy
					dataset := l.NodeByID(0).Size
					if edge := prov.Storage.Table.Tiers[0].UpTo; edge > 0 && rng.Intn(2) == 0 {
						dataset = edge - units.DataSize(rng.Int63n(int64(viewBytes)+1))
					}
					plan := costmodel.Plan{Cluster: cl, Months: 1, DatasetSize: dataset, MonthlyEgress: egress}
					ev, err := NewEvaluator(est, w, plan)
					if err != nil {
						t.Fatal(err)
					}
					sess, err := kern.RepriceFor(ev)
					if err != nil {
						t.Fatal(err)
					}
					inc := sess.Engine()
					for walk := 0; walk < 10; walk++ {
						inc.resetEmpty()
						t0, b0, err := inc.Score()
						if err != nil {
							t.Fatal(err)
						}
						for _, i := range rng.Perm(len(cands)) {
							inc.Add(i)
							t1, b1, err := inc.Score()
							if err != nil {
								t.Fatal(err)
							}
							moves++
							for term, ok := range map[string]bool{
								"proc":    t1 <= t0,
								"maint":   b1.Compute.Maintenance >= b0.Compute.Maintenance,
								"mat":     b1.Compute.Materialization >= b0.Compute.Materialization,
								"storage": b1.Storage >= b0.Storage,
							} {
								if !ok {
									broken[lawBreak{term, name, policy}]++
								}
							}
							t0, b0 = t1, b1
						}
					}
				}
			}
		}
	}
	return moves, broken
}

// TestMonotonicityLaws holds the terms of a subset's price to their
// directions under Add wherever they hold: processing time never rises
// and materialization never falls under every tariff and policy;
// maintenance never falls under immediate maintenance; storage never
// falls on a graduated storage table. The compare engine's break-even
// bound skips a cell on the first law alone: a cell's fastest time is
// its time with the whole pool selected.
//
// The other two cases do not hold, and TestMonotonicityLawExceptions
// pins them.
func TestMonotonicityLaws(t *testing.T) {
	moves, broken := addLaws(t)
	if moves < 5000 {
		t.Fatalf("only %d moves walked", moves)
	}
	for b, n := range broken {
		if !lawException(t, b) {
			t.Errorf("law %q broken on %d of %d moves (%s, policy %v)", b.term, n, moves, b.tariff, b.policy)
		}
	}
}

// TestMonotonicityLawExceptions pins the two laws that fail, so that no
// bound is built on them unnoticed:
//
//   - deferred maintenance refreshes a view at most as often as it
//     serves a query, so a new view that takes queries from a bigger
//     one moves their refreshes onto the cheaper view and the
//     maintenance term can fall;
//   - a slab storage table bills the whole volume at the rate of the
//     bracket the total falls into (Formula 5's cs(DS)), so views whose
//     bytes carry the total over a bracket edge can lower the bill.
func TestMonotonicityLawExceptions(t *testing.T) {
	_, broken := addLaws(t)
	seen := map[string]bool{}
	for b := range broken {
		if lawException(t, b) {
			seen[b.term] = true
		}
	}
	for _, term := range []string{"maint", "storage"} {
		if !seen[term] {
			t.Errorf("the %s law was never broken where it is known not to hold: it may hold now", term)
		}
	}
}

// lawException reports whether b is one of the two known exceptions.
func lawException(t *testing.T, b lawBreak) bool {
	t.Helper()
	switch b.term {
	case "maint":
		return b.policy == views.DeferredMaintenance
	case "storage":
		p, err := pricing.Lookup(b.tariff)
		if err != nil {
			t.Fatal(err)
		}
		return p.Storage.Table.Mode == pricing.Slab
	}
	return false
}
