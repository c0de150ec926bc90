package compare

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/views"
)

// unboundedBreakEven is the sweep without the bound: every cell solved
// at every budget, the winner picked over all of them. It also checks
// what the bound stands on: a cell whose baseline fits the budget
// answers feasibly, and none answers faster than its MinTime.
func unboundedBreakEven(t *testing.T, budgets []money.Money, configs []ConfigResult, sessions []*optimizer.KernelSession) (be *BreakEven, solves int) {
	t.Helper()
	be = &BreakEven{Budgets: budgets}
	for _, b := range budgets {
		var best Winner
		for i, sess := range sessions {
			tm, cost, feasible, err := sess.BudgetOutcome(b)
			if err != nil {
				t.Fatal(err)
			}
			_, baseBill, err := sess.Base()
			if err != nil {
				t.Fatal(err)
			}
			if fits := baseBill.Total() <= b; fits {
				solves++
				if !feasible {
					t.Fatalf("%s at %v: the baseline fits, the answer is infeasible", configs[i].Key, b)
				}
			}
			if tm < sess.MinTime() {
				t.Fatalf("%s at %v: answers in %v, below MinTime %v", configs[i].Key, b, tm, sess.MinTime())
			}
			w := Winner{Key: configs[i].Key, Time: tm, Cost: cost, Feasible: feasible}
			if i == 0 || w.outranks(optimizer.Budget(b), best) {
				best = w
			}
		}
		be.Winners = append(be.Winners, best.Key)
	}
	for i := 1; i < len(be.Winners); i++ {
		if be.Winners[i] != be.Winners[i-1] {
			be.Flips = append(be.Flips, Flip{Budget: budgets[i], From: be.Winners[i-1], To: be.Winners[i]})
		}
	}
	return be, solves
}

// checkBreakEven holds Run's bounded sweep to the unbounded one on the
// same request: the same budgets, winners and flips. It returns the
// solves of both.
func checkBreakEven(t *testing.T, req Request) (bounded, unbounded int) {
	t.Helper()
	comp, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	n, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	configs, sessions, _, err := n.solveGrid()
	if err != nil {
		t.Fatal(err)
	}
	want, unbounded := unboundedBreakEven(t, n.sweepBudgets, configs, sessions)
	if !reflect.DeepEqual(comp.BreakEven, want) {
		t.Fatalf("bounded sweep %+v, unbounded %+v", comp.BreakEven, want)
	}
	return comp.sweepSolves, unbounded
}

// TestBreakEvenSolves pins the break-even sweep's work on
// benchComparison's request (2 tariffs × fleets {3, 5}, 8 budgets): the
// bounded sweep's MV1 solves, against the cells × budgets of a solve
// per cell and budget and the solves without the bound, one per cell
// whose baseline fits the budget.
func TestBreakEvenSolves(t *testing.T) {
	bounded, unbounded := checkBreakEven(t, bench2x2Request(t))
	const want = 8 // 4 cells × 8 budgets = 32; 32 without the bound
	if bounded != want {
		t.Errorf("the break-even sweep ran %d solves, want %d", bounded, want)
	}
	if bounded >= unbounded {
		t.Errorf("the bound saves nothing: %d solves against %d without it", bounded, unbounded)
	}
	t.Logf("%d solves; %d without the bound", bounded, unbounded)
}

// FuzzBreakEvenBound holds the bounded break-even sweep to the unbounded
// one — every cell solved at every budget — on random small grids:
// random tariffs, fleet sizes, workloads, fact rows, budgets, step
// counts and maintenance policies. A twin of the first tariff, the same
// but for its instance prices, ties it on every time, so that the cost
// decides between cells the bound must both solve. Budgets, winners and
// flips must agree, and every cell whose baseline fits a budget must
// answer it feasibly, which is what lets the bound skip a cell unsolved.
func FuzzBreakEvenBound(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(0), uint8(0b101), uint8(10), uint32(50_000_000), uint32(2500), uint8(8), false)
	f.Add(int64(7), uint8(1), uint8(3), uint8(0b11), uint8(5), uint32(200_000_000), uint32(900), uint8(4), true)
	f.Add(int64(3), uint8(0), uint8(0), uint8(1), uint8(3), uint32(10_000_000), uint32(40), uint8(2), false)
	f.Add(int64(11), uint8(3), uint8(6), uint8(0b110110), uint8(8), uint32(1_000_000), uint32(99_999), uint8(11), true)
	f.Add(int64(5), uint8(0), uint8(2), uint8(0b1000), uint8(7), uint32(80_000_000), uint32(3000), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed int64, providers, twin, fleets, queries uint8, rows, cents uint32, steps uint8, deferred bool) {
		req := Request{
			Config: core.Config{
				Workload: testWorkload(t, 1+int(queries%10)),
				FactRows: 1_000_000 + int64(rows%400_000_000),
			},
			Providers:      randomCatalog(seed, 1+int(providers%4)),
			Scenarios:      []string{"mv1"},
			Budget:         money.Cent.MulInt(1 + int64(cents%20_000)),
			BreakEvenSteps: 2 + int(steps%12),
			Workers:        1,
		}
		if deferred {
			req.MaintenancePolicy = views.DeferredMaintenance
		}
		if twin%8 != 0 {
			p := req.Providers[0].Clone()
			p.Name = "twin"
			for name, it := range p.Compute.Instances {
				it.PricePerHour = it.PricePerHour.MulFloat(float64(twin%8) / 4)
				p.Compute.Instances[name] = it
			}
			req.Providers = append(req.Providers, p)
		}
		for size := 1; size <= 6; size++ {
			if fleets&(1<<size) != 0 {
				req.FleetSizes = append(req.FleetSizes, size)
			}
		}
		checkBreakEven(t, req)
	})
}

// TestOneBreakEvenStepRejected: a sweep of one budget can locate no
// flip, so with mv1 requested one step is refused on every route — Run,
// and the wire request's Normalize — as pareto's one step is. Without
// mv1 there is no sweep, and the value is ignored.
func TestOneBreakEvenStepRejected(t *testing.T) {
	const want = "compare: break-even needs at least 2 steps, got 1"
	req := testRequest(t)
	req.BreakEvenSteps = 1
	if _, err := Run(req); err == nil || err.Error() != want {
		t.Errorf("Run: %v, want %q", err, want)
	}
	budget := money.FromDollars(25)
	rj := RequestJSON{Budget: &budget, BreakEvenSteps: 1}
	if err := rj.Normalize(); err == nil || err.Error() != want {
		t.Errorf("Normalize: %v, want %q", err, want)
	}
	req.Scenarios = []string{"mv3"}
	if _, err := Run(req); err != nil {
		t.Errorf("Run without mv1: %v", err)
	}
	rj = RequestJSON{Scenarios: []string{"mv3"}, BreakEvenSteps: 1}
	if err := rj.Normalize(); err != nil || rj.BreakEvenSteps != 0 {
		t.Errorf("Normalize without mv1: %v, break_even_steps %d", err, rj.BreakEvenSteps)
	}
}

// TestBreakEvenStopsWhenCancelled: the sweep runs after the fan-out, so
// it checks the request's context itself, between budgets, and gives up
// with its error once it is done.
func TestBreakEvenStopsWhenCancelled(t *testing.T) {
	n, err := bench2x2Request(t).normalize()
	if err != nil {
		t.Fatal(err)
	}
	configs, sessions, _, err := n.solveGrid()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, solves, err := breakEven(ctx, n.sweepBudgets, configs, sessions); !errors.Is(err, context.Canceled) || solves != 0 {
		t.Fatalf("cancelled sweep: %d solves, err %v; want none and context.Canceled", solves, err)
	}
	if _, _, err := breakEven(nil, n.sweepBudgets, configs, sessions); err != nil {
		t.Fatalf("sweep without a context: %v", err)
	}
}
