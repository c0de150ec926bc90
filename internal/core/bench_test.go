package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// BenchmarkAdviseSearchCold256 is the repo benchmark's search-large
// operation without the harness: a cold core.New on the 256-cuboid
// synthetic lattice (40 queries, candidate budget 48), one search-solver
// advise rotating mv1/mv2/mv3, and the recommendation encoded as JSON.
// Scenario parameters sit inside the interval between the no-view and
// the all-views outcome, as the benchmark's generator draws them.
// moves/op is the incremental engine's Add/Drop count per operation.
func BenchmarkAdviseSearchCold256(b *testing.B) {
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	const factRows = 1_000_000_000
	l, err := lattice.New(sch, factRows)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Random(l, 40, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cold := func(rows int64, seed int64) *core.Advisor {
		adv, err := core.New(core.Config{
			Schema:          sch,
			FactRows:        rows,
			Workload:        w,
			CandidateBudget: 48,
			Solver:          core.SolverSearch,
			Seed:            seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return adv
	}
	adv := cold(factRows, 0)
	baseT, baseBill, err := adv.Ev.Evaluate(nil)
	if err != nil {
		b.Fatal(err)
	}
	allT, allBill, err := adv.Ev.Evaluate(views.Points(adv.Candidates))
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := baseBill.Total().Dollars(), allBill.Total().Dollars()
	if hi < lo {
		lo, hi = hi, lo
	}
	budget := money.FromDollars(lo + 0.6*(hi-lo))
	limit := allT + (baseT-allT)/2
	var buf bytes.Buffer
	var moves int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := cold(factRows+int64(i), int64(i))
		var rec core.Recommendation
		switch i % 3 {
		case 0:
			rec, err = adv.AdviseBudget(budget)
		case 1:
			rec, err = adv.AdviseDeadline(limit)
		default:
			rec, err = adv.AdviseTradeoff(0.6)
		}
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(rec.JSON()); err != nil {
			b.Fatal(err)
		}
		moves += adv.Session().Engine().Moves()
	}
	b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
}
