package optimizer

import (
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// Randomized end-to-end check: for arbitrary workloads, the three solvers
// must always produce selections that (a) respect their constraints when
// they claim feasibility, (b) never do worse than the no-view baseline on
// their objective, and (c) price consistently.
func TestSolversOnRandomWorkloads(t *testing.T) {
	l, err := lattice.New(schema.Sales(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	prov := pricing.AWS2012()
	prov.Compute.Granularity = units.BillPerMinute
	cl, err := cluster.New(prov, "small", 3)
	if err != nil {
		t.Fatal(err)
	}
	cl.JobOverhead = time.Minute

	for seed := int64(0); seed < 12; seed++ {
		w, err := workload.Random(l, 6, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		est := views.NewEstimator(l, cl)
		base := costmodel.Plan{
			Cluster:     cl,
			Months:      1,
			DatasetSize: 3 * units.GB,
		}
		ev, err := NewEvaluator(est, w, base)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := views.GenerateCandidates(l, w, 6)
		if err != nil {
			t.Fatal(err)
		}
		sess := session(t, ev, cands)
		baseT, baseBill, err := ev.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}

		// MV1 with the baseline budget: always feasible, never slower.
		mv1, err := sess.SolveMV1(baseBill.Total())
		if err != nil {
			t.Fatalf("seed %d: MV1: %v", seed, err)
		}
		if !mv1.Feasible {
			t.Errorf("seed %d: MV1 infeasible at its own baseline budget", seed)
		}
		if mv1.Bill.Total() > baseBill.Total() {
			t.Errorf("seed %d: MV1 bill %v over budget %v", seed, mv1.Bill.Total(), baseBill.Total())
		}
		if mv1.Time > baseT {
			t.Errorf("seed %d: MV1 slower than baseline", seed)
		}

		// MV2 with a generous limit: feasible, bill never above baseline
		// (the no-view plan is itself feasible, so the solver may at worst
		// return it).
		mv2, err := sess.SolveMV2(baseT)
		if err != nil {
			t.Fatalf("seed %d: MV2: %v", seed, err)
		}
		if !mv2.Feasible {
			t.Errorf("seed %d: MV2 infeasible at the baseline time", seed)
		}
		if mv2.Time > baseT {
			t.Errorf("seed %d: MV2 time %v over limit %v", seed, mv2.Time, baseT)
		}
		if mv2.Bill.Total() > baseBill.Total() {
			t.Errorf("seed %d: MV2 bill %v above the feasible baseline %v",
				seed, mv2.Bill.Total(), baseBill.Total())
		}

		// MV3 at a few alphas: objective never worse than baseline.
		for _, alpha := range []float64{0, 0.5, 1} {
			sc, err := Tradeoff(alpha, RawTradeoff, 0, costmodel.Bill{})
			if err != nil {
				t.Fatal(err)
			}
			mv3, err := sess.Solve(sc)
			if err != nil {
				t.Fatalf("seed %d: MV3(%g): %v", seed, alpha, err)
			}
			with, without := sc.Score(mv3.Time, mv3.Bill), sc.Score(baseT, baseBill)
			if with > without+1e-9 {
				t.Errorf("seed %d: MV3(%g) objective %.6f worse than baseline %.6f",
					seed, alpha, with, without)
			}
		}
	}
}

// Deferred maintenance never prices above immediate, across random
// workloads and view sets.
func TestDeferredNeverAboveImmediate(t *testing.T) {
	l, err := lattice.New(schema.Sales(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		w, err := workload.Random(l, 5, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := views.GenerateCandidates(l, w, 5)
		if err != nil {
			t.Fatal(err)
		}
		pts := views.Points(cands)
		imm := views.NewEstimator(l, cl)
		def := views.NewEstimator(l, cl)
		def.Policy = views.DeferredMaintenance
		a := imm.MaintenanceTimeForWorkload(pts, w)
		b := def.MaintenanceTimeForWorkload(pts, w)
		if b > a {
			t.Errorf("seed %d: deferred %v above immediate %v", seed, b, a)
		}
	}
}

func TestRandomWorkloadErrors(t *testing.T) {
	l, err := lattice.New(schema.Sales(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Random(l, 0, 5, 1); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := workload.Random(l, 3, 0, 1); err == nil {
		t.Error("zero maxFreq accepted")
	}
	w, err := workload.Random(l, 7, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(l); err != nil {
		t.Errorf("random workload invalid: %v", err)
	}
	// Deterministic per seed.
	w2, _ := workload.Random(l, 7, 9, 2)
	for i := range w.Queries {
		if !w.Queries[i].Point.Equal(w2.Queries[i].Point) || w.Queries[i].Frequency != w2.Queries[i].Frequency {
			t.Fatal("random workload not deterministic")
		}
	}
}
