package compare

import (
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
)

// The compare miss in process: one request's grid solved in key order
// on the benchmark's goroutine. Run with:
//
//	go test ./internal/compare -bench BenchmarkCompare -benchtime 5x

func benchRequest(b testing.TB) Request {
	return Request{
		Config:         core.Config{Workload: testWorkload(b, 10), FactRows: 50_000_000},
		Scenarios:      []string{"mv1", "mv2", "mv3"},
		Budget:         money.FromDollars(25),
		Limit:          4 * time.Hour,
		BreakEvenSteps: 8,
		FleetSizes:     []int{3, 5},
	}
}

// wideRequest is the widest grid the daemon admits by default: the
// catalog's five tariffs × two instance types × six fleets, 60 of the 64
// cells allowed, and a break-even sweep of 101 budgets, the steps' cap.
func wideRequest(b testing.TB) Request {
	req := benchRequest(b)
	req.InstanceTypes = []string{"small", "large"}
	req.FleetSizes = []int{1, 2, 3, 4, 5, 6}
	req.BreakEvenSteps = 101
	return req
}

// runCompareBench reports, beside time and allocations, the break-even
// sweep's work count: its MV1 solves per comparison (of cells × budgets
// without the bound).
func runCompareBench(b *testing.B, req Request) {
	b.ReportAllocs()
	b.ResetTimer()
	var comp *Comparison
	for i := 0; i < b.N; i++ {
		var err error
		if comp, err = Run(req); err != nil {
			b.Fatal(err)
		}
		if len(comp.Configs) == 0 {
			b.Fatal("empty comparison")
		}
	}
	b.ReportMetric(float64(comp.sweepSolves), "sweep-solves/op")
}

// BenchmarkCompareSequential solves benchRequest: every catalog tariff
// at fleets of 3 and 5, three scenarios and an 8-budget break-even
// sweep.
func BenchmarkCompareSequential(b *testing.B) { runCompareBench(b, benchRequest(b)) }

// BenchmarkCompareWide solves wideRequest: the grid where the break-even
// sweep, which runs after the cells, has the most cells and budgets to
// go through.
func BenchmarkCompareWide(b *testing.B) { runCompareBench(b, wideRequest(b)) }
