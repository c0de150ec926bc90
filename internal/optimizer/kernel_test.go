package optimizer

import (
	"math/rand"
	"reflect"
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

// TestKernelSessionMatchesEvaluator is the kernel's exactness anchor:
// for random workloads, tariffs, fleet sizes and both maintenance
// policies, a RepriceFor session must reproduce the Evaluator's scenario
// solvers bit for bit — selections, times, bills, items, baseline.
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

				budget := baseBill.Total().MulFloat(0.4 + 1.2*rng.Float64())
				wantMV1, err := ev.SolveMV1(cands, budget)
				if err != nil {
					t.Fatal(err)
				}
				gotMV1, err := sess.SolveMV1(budget)
				if err != nil {
					t.Fatal(err)
				}
				assertSelectionsEqual(t, "mv1", seed, cell, gotMV1, wantMV1)

				limit := time.Duration(float64(baseT) * (0.3 + rng.Float64()))
				wantMV2, err := ev.SolveMV2(cands, limit)
				if err != nil {
					t.Fatal(err)
				}
				gotMV2, err := sess.SolveMV2(limit)
				if err != nil {
					t.Fatal(err)
				}
				assertSelectionsEqual(t, "mv2", seed, cell, gotMV2, wantMV2)

				for _, mode := range []TradeoffMode{RawTradeoff, NormalizedTradeoff} {
					alpha := rng.Float64()
					wantMV3, err := ev.SolveMV3(cands, alpha, mode)
					if err != nil {
						t.Fatal(err)
					}
					gotMV3, err := sess.SolveMV3(alpha, mode)
					if err != nil {
						t.Fatal(err)
					}
					assertSelectionsEqual(t, "mv3", seed, cell, gotMV3, wantMV3)
				}
			}
		}
	}
}

func assertSelectionsEqual(t *testing.T, scenario string, seed int64, cell int, got, want Selection) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d cell %d: %s diverged:\ngot  %+v\nwant %+v", seed, cell, scenario, got, want)
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
	kern, err := NewComparisonKernel(l, w, cands)
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
	egress, err := w.ResultBytes(l)
	if err != nil {
		t.Fatal(err)
	}
	base := costmodel.Plan{Cluster: cl, Months: 1, DatasetSize: l.NodeByID(0).Size, MonthlyEgress: egress}
	ev, err := NewEvaluator(est, w, base)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := kern.RepriceFor(ev)
	if err != nil {
		t.Fatal(err)
	}
	return sess, ev, cands
}

// TestKernelSessionBudgetSweep mirrors the comparison engine's
// break-even usage: a sweep of MV1 budgets on one session must equal
// fresh Evaluator solves at every budget.
func TestKernelSessionBudgetSweep(t *testing.T) {
	sess, ev, cands := sweepFixture(t)
	for d := 5; d <= 60; d += 5 {
		budget := money.FromDollars(float64(d))
		want, err := ev.SolveMV1(cands, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.SolveMV1(budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %v diverged:\ngot  %+v\nwant %+v", budget, got, want)
		}
	}
}
