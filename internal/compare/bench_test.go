package compare

import (
	"runtime"
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
)

// The acceptance bar for the fan-out: solving the full catalog grid on
// the worker pool must beat the sequential baseline (Workers = 1) on any
// multi-core machine. Run with:
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

func runCompareBench(b *testing.B, workers int) {
	req := benchRequest(b)
	req.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err := Run(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(comp.Configs) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkCompareSequential is the baseline: one worker solves the
// whole provider × fleet grid in order.
func BenchmarkCompareSequential(b *testing.B) { runCompareBench(b, 1) }

// BenchmarkCompareParallel fans the same grid out over GOMAXPROCS
// workers — the repo's first parallel solve path.
func BenchmarkCompareParallel(b *testing.B) { runCompareBench(b, runtime.GOMAXPROCS(0)) }
