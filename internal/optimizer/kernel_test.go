package optimizer

import (
	"math/rand"
	"reflect"
	"sort"
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

// randomProvider derives a valid tariff variant deterministically from a
// seed: perturbed instance prices/ECUs, storage slab rates and billing
// granularity over the AWS fixture's shape — the "random catalog" the
// kernel equivalence properties sweep over.
func randomProvider(seed int64) pricing.Provider {
	rng := rand.New(rand.NewSource(seed))
	p := pricing.AWS2012().Clone()
	for name, it := range p.Compute.Instances {
		it.PricePerHour = it.PricePerHour.MulFloat(0.25 + 1.5*rng.Float64())
		it.ECU = it.ECU * (0.5 + rng.Float64())
		p.Compute.Instances[name] = it
	}
	for i := range p.Storage.Table.Tiers {
		p.Storage.Table.Tiers[i].PricePerGB = p.Storage.Table.Tiers[i].PricePerGB.MulFloat(0.5 + rng.Float64())
	}
	for i := range p.Transfer.Egress.Tiers {
		p.Transfer.Egress.Tiers[i].PricePerGB = p.Transfer.Egress.Tiers[i].PricePerGB.MulFloat(0.5 + rng.Float64())
	}
	switch rng.Intn(3) {
	case 0:
		p.Compute.Granularity = units.BillPerHour
	case 1:
		p.Compute.Granularity = units.BillPerMinute
	case 2:
		p.Compute.Granularity = units.BillPerSecond
	}
	return p
}

// TestKernelSessionMatchesEvaluator holds the solver to the definitions:
// for random workloads, tariffs, fleet sizes and both maintenance
// policies, a RepriceFor session's baseline is Evaluate(nil), its items
// are BuildItems, and every selection it returns carries exactly the
// (Time, Bill) Evaluate gives its points — the flat-array pricing and
// the lattice-walk pricing agree bit for bit — with Feasible the
// scenario's constraint on that pair.
func TestKernelSessionMatchesEvaluator(t *testing.T) {
	l, err := lattice.New(schema.Sales(), 80_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		w, err := workload.Random(l, 3+rng.Intn(8), 30, seed)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := views.GenerateCandidates(l, w, 2+rng.Intn(7))
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
		for _, policy := range []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance} {
			for cell := 0; cell < 3; cell++ {
				prov := randomProvider(seed*10 + int64(cell))
				cl, err := cluster.New(prov, "small", 1+rng.Intn(8))
				if err != nil {
					t.Fatal(err)
				}
				cl.JobOverhead = 2 * time.Minute
				est := views.NewEstimator(l, cl)
				est.MaintenanceRuns = rng.Intn(6)
				est.UpdateRatio = 0.05 + 0.3*rng.Float64()
				est.Policy = policy
				base := costmodel.Plan{
					Cluster:       cl,
					Months:        0.5 + 2*rng.Float64(),
					DatasetSize:   l.NodeByID(0).Size,
					MonthlyEgress: egress,
				}
				ev, err := NewEvaluator(est, w, base)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := kern.RepriceFor(ev)
				if err != nil {
					t.Fatal(err)
				}

				baseT, baseBill, err := ev.Evaluate(nil)
				if err != nil {
					t.Fatal(err)
				}
				gotT, gotBill, err := sess.Base()
				if err != nil {
					t.Fatal(err)
				}
				if gotT != baseT || gotBill != baseBill {
					t.Fatalf("seed %d cell %d policy %v: baseline diverged: (%v,%v) vs (%v,%v)",
						seed, cell, policy, gotT, gotBill, baseT, baseBill)
				}

				wantItems, err := ev.BuildItems(cands)
				if err != nil {
					t.Fatal(err)
				}
				if gotItems := sess.Items(); !reflect.DeepEqual(gotItems, wantItems) {
					t.Fatalf("seed %d cell %d policy %v: items diverged:\ngot  %+v\nwant %+v",
						seed, cell, policy, gotItems, wantItems)
				}

				check := func(sc Scenario, sel Selection) {
					t.Helper()
					wantT, wantBill, err := ev.Evaluate(sel.Points)
					if err != nil {
						t.Fatal(err)
					}
					if sel.Time != wantT || sel.Bill != wantBill {
						t.Fatalf("seed %d cell %d policy %v: %s priced %v at (%v,%v), Evaluate gives (%v,%v)",
							seed, cell, policy, sc.Name(), sel.Points, sel.Time, sel.Bill, wantT, wantBill)
					}
					if sel.Feasible != sc.Met(wantT, wantBill) {
						t.Fatalf("seed %d cell %d policy %v: %s Feasible=%v disagrees with its constraint on (%v,%v)",
							seed, cell, policy, sc.Name(), sel.Feasible, wantT, wantBill.Total())
					}
				}

				budget := baseBill.Total().MulFloat(0.4 + 1.2*rng.Float64())
				mv1, err := sess.SolveMV1(budget)
				if err != nil {
					t.Fatal(err)
				}
				check(Budget(budget), mv1)

				limit := time.Duration(float64(baseT) * (0.3 + rng.Float64()))
				mv2, err := sess.SolveMV2(limit)
				if err != nil {
					t.Fatal(err)
				}
				check(Deadline(limit), mv2)

				for _, mode := range []TradeoffMode{RawTradeoff, NormalizedTradeoff} {
					sc, err := Tradeoff(rng.Float64(), mode, baseT, baseBill)
					if err != nil {
						t.Fatal(err)
					}
					mv3, err := sess.Solve(sc)
					if err != nil {
						t.Fatal(err)
					}
					check(sc, mv3)
				}
			}
		}
	}
}

// TestRepriceForRejectsForeignEvaluator pins the wiring guard: a session
// cannot bind an evaluator built over a different lattice.
func TestRepriceForRejectsForeignEvaluator(t *testing.T) {
	l1, _ := lattice.New(schema.Sales(), 1_000_000)
	l2, _ := lattice.New(schema.Sales(), 2_000_000)
	w, err := workload.Sales(l1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l1, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := NewComparisonKernel(l1, w, cands)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(views.NewEstimator(l2, cl), w, costmodel.Plan{Cluster: cl, Months: 1, DatasetSize: units.GB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kern.RepriceFor(ev); err == nil {
		t.Fatal("foreign evaluator accepted")
	}
}

// sweepFixture binds one session on the paper's 16-node lattice where
// all 8 candidates cost money (base bill ≈ $0.93, ≈ $0.11 per view), so
// MV1 budgets really run the knapsack.
func sweepFixture(t testing.TB) (*KernelSession, *Evaluator, []views.Candidate) {
	t.Helper()
	return paperSession(t, views.ImmediateMaintenance)
}

// paperSession is sweepFixture under the given maintenance policy.
func paperSession(t testing.TB, policy views.MaintenancePolicy) (*KernelSession, *Evaluator, []views.Candidate) {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	cl.JobOverhead = 2 * time.Minute
	est := views.NewEstimator(l, cl)
	est.MaintenanceRuns = 4
	est.UpdateRatio = 0.2
	est.Policy = policy
	egress, err := w.ResultBytes(l)
	if err != nil {
		t.Fatal(err)
	}
	base := costmodel.Plan{Cluster: cl, Months: 1, DatasetSize: l.NodeByID(0).Size, MonthlyEgress: egress}
	ev, err := NewEvaluator(est, w, base)
	if err != nil {
		t.Fatal(err)
	}
	return session(t, ev, cands), ev, cands
}

// TestKernelSessionBudgetSweep is the comparison engine's break-even
// usage: a sweep of MV1 budgets on one session. BudgetOutcome must be
// SolveMV1's scalars at every budget, and both the definitions' exact
// price of the selected points.
func TestKernelSessionBudgetSweep(t *testing.T) {
	sess, ev, _ := sweepFixture(t)
	for d := 5; d <= 60; d += 5 {
		budget := money.FromDollars(float64(d))
		sel, err := sess.SolveMV1(budget)
		if err != nil {
			t.Fatal(err)
		}
		gotT, gotCost, gotOK, err := sess.BudgetOutcome(budget)
		if err != nil {
			t.Fatal(err)
		}
		if gotT != sel.Time || gotCost != sel.Bill.Total() || gotOK != sel.Feasible {
			t.Fatalf("budget %v: BudgetOutcome (%v,%v,%v) vs SolveMV1 (%v,%v,%v)",
				budget, gotT, gotCost, gotOK, sel.Time, sel.Bill.Total(), sel.Feasible)
		}
		wantT, wantBill, err := ev.Evaluate(sel.Points)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Time != wantT || sel.Bill != wantBill || sel.Feasible != (wantBill.Total() <= budget) {
			t.Fatalf("budget %v: SolveMV1 priced %v at (%v,%v,%v), Evaluate gives (%v,%v)",
				budget, sel.Points, sel.Time, sel.Bill.Total(), sel.Feasible, wantT, wantBill.Total())
		}
	}
}

// A sweep of unreachable deadlines keeps its scratch too: the best-effort
// return stores the grown selection buffer like every other path, so a
// warm infeasible SolveMV2 allocates the returned Points and nothing else.
func TestSolveMV2InfeasibleReusesScratch(t *testing.T) {
	sess, _, _ := sweepFixture(t)
	allocs := testing.AllocsPerRun(20, func() {
		sel, err := sess.SolveMV2(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Feasible || len(sel.Points) == 0 {
			t.Fatalf("1-second limit: feasible=%v with %d views, want a best-effort infeasible selection", sel.Feasible, len(sel.Points))
		}
	})
	if allocs != 1 {
		t.Errorf("warm infeasible SolveMV2 allocates %.0f times per run, want 1 (the returned Points)", allocs)
	}
}

// BenchmarkSessionSolves is the session layer on the paper's sales
// problem: one session, per iteration SolveMV1, SolveMV2, SolveMV3 and
// an 8-budget BudgetOutcome sweep (a compare cell's break-even search),
// every pick priced exactly on the session's engine.
func BenchmarkSessionSolves(b *testing.B) {
	for _, c := range []struct {
		name   string
		policy views.MaintenancePolicy
	}{{"immediate", views.ImmediateMaintenance}, {"deferred", views.DeferredMaintenance}} {
		b.Run(c.name, func(b *testing.B) {
			sess, ev, cands := paperSession(b, c.policy)
			baseT, baseBill, err := ev.Evaluate(nil)
			if err != nil {
				b.Fatal(err)
			}
			allT, allBill, err := ev.Evaluate(views.Points(cands))
			if err != nil {
				b.Fatal(err)
			}
			lo, hi := min(baseBill.Total(), allBill.Total()), max(baseBill.Total(), allBill.Total())
			budgets := make([]money.Money, 8)
			for i := range budgets {
				budgets[i] = lo.Add(money.Money(int64(hi.Sub(lo)) * int64(i+1) / 8))
			}
			limit := allT + (baseT-allT)/2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.SolveMV1(budgets[3]); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.SolveMV2(limit); err != nil {
					b.Fatal(err)
				}
				if _, err := sess.SolveMV3(0.5, RawTradeoff); err != nil {
					b.Fatal(err)
				}
				for _, budget := range budgets {
					if _, _, _, err := sess.BudgetOutcome(budget); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestRepairSortsOnce holds the MV1 exact repair's one sort to the loop
// it replaced, which sorted the remaining picks before every drop: on
// random picks with tied densities, free views among them, both drop
// the same views in the same order and leave the survivors in the same
// order (the order of the returned points).
func TestRepairSortsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(20)
		items := make([]Item, n)
		for i := range items {
			// Few distinct values, so that densities tie often.
			items[i] = Item{
				TimeSaved: time.Duration(1+rng.Intn(4)) * time.Hour,
				CostDelta: money.Money(rng.Intn(4)-1) * money.Cent,
			}
		}
		chosen := make([]int32, n)
		for i, p := range rng.Perm(n) {
			chosen[i] = int32(p)
		}
		old := append([]int32(nil), chosen...)
		byDensity(chosen, items)
		for drops := rng.Intn(n + 1); drops > 0; drops-- {
			sort.Slice(old, func(a, b int) bool { return density(items[old[a]]) < density(items[old[b]]) })
			old, chosen = old[1:], chosen[1:]
			if !reflect.DeepEqual(old, chosen) {
				t.Fatalf("trial %d: after a drop the loop holds %v, the one sort %v", trial, old, chosen)
			}
		}
	}
}

// TestMinTime: a session's MinTime is the time of the whole pool
// selected, priced on its engine, and no scenario answers faster.
func TestMinTime(t *testing.T) {
	for _, n := range []int{1, 3, 5, 10} {
		ev, cands := fixture(t, n)
		for _, policy := range []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance} {
			ev.Est.Policy = policy
			sess := session(t, ev, cands)
			all := make([]int32, len(cands))
			for i := range all {
				all[i] = int32(i)
			}
			want, _, err := sess.priceSel(all)
			if err != nil {
				t.Fatal(err)
			}
			if got := sess.MinTime(); got != want {
				t.Fatalf("%d queries, policy %v: MinTime %v, the whole pool prices at %v", n, policy, got, want)
			}
			_, baseBill, err := sess.Base()
			if err != nil {
				t.Fatal(err)
			}
			for _, extra := range []float64{0, 0.5, 2, 50} {
				sel, err := sess.SolveMV1(baseBill.Total().Add(money.FromDollars(extra)))
				if err != nil {
					t.Fatal(err)
				}
				if sel.Time < want {
					t.Errorf("%d queries: MV1 at base+$%g answers in %v, below MinTime %v", n, extra, sel.Time, want)
				}
			}
		}
	}
}
