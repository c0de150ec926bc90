package search

import (
	"testing"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// largeFixture builds the 256-cuboid stress instance the benchmarks and
// the cmd/experiments -large scenario share.
func largeFixture(b testing.TB) (*optimizer.Evaluator, []views.Candidate, money.Money) {
	b.Helper()
	return syntheticFixture(b, 20, 32)
}

// syntheticFixture wires a 4×4 synthetic schema (256 cuboids) with the
// given workload and candidate-pool sizes; the budget sits 1% above the
// no-view bill. (40, 48) is the repo benchmark's search-large shape.
func syntheticFixture(b testing.TB, queries, pool int) (*optimizer.Evaluator, []views.Candidate, money.Money) {
	b.Helper()
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lattice.New(sch, 1_000_000_000)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Random(l, queries, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 5)
	if err != nil {
		b.Fatal(err)
	}
	est := views.NewEstimator(l, cl)
	est.MaintenanceRuns = 6
	est.UpdateRatio = 0.50
	base, err := l.Node(l.Base())
	if err != nil {
		b.Fatal(err)
	}
	egress, err := w.ResultBytes(l)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := optimizer.NewEvaluator(est, w, costmodel.Plan{
		Cluster:       cl,
		Months:        1,
		DatasetSize:   base.Size,
		MonthlyEgress: egress,
	})
	if err != nil {
		b.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, pool)
	if err != nil {
		b.Fatal(err)
	}
	_, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		b.Fatal(err)
	}
	return ev, cands, baseBill.Total().MulFloat(1.01)
}

// BenchmarkSearchMV1Large measures one full metaheuristic MV1 solve on
// the 256-cuboid lattice under the default evaluation budget.
func BenchmarkSearchMV1Large(b *testing.B) {
	ev, cands, budget := largeFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMV1(ev, cands, budget, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnapsackMV1Large is the linearized baseline on the same
// instance — what the search's wall-clock cost buys over.
func BenchmarkKnapsackMV1Large(b *testing.B) {
	ev, cands, budget := largeFixture(b)
	sess, err := optimizer.NewSession(ev, cands)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.SolveMV1(budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchMV1Sales measures the solver on the paper's 16-node
// lattice — the latency a wire request pays when it opts into search.
func BenchmarkSearchMV1Sales(b *testing.B) {
	ev, cands := fixture(b, 10, 8)
	budget := money.FromDollars(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMV1(ev, cands, budget, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchParetoSales is the search-mode pareto sweep a wire
// request pays on the sales lattice: core.Advisor.ParetoFront's shape
// (11 α steps sharing one evaluation cache under an 11 × 4,096 budget)
// over 8 candidates, where only 2⁸ states exist to be cached.
func BenchmarkSearchParetoSales(b *testing.B) {
	ev, cands := fixture(b, 10, 8)
	const steps = 11
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParetoSweep(ev, cands, steps, optimizer.NormalizedTradeoff, Options{Seed: 1, MaxEvals: steps * DefaultMaxEvals}); err != nil {
			b.Fatal(err)
		}
	}
}
