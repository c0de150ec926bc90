// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), plus ablation benches for the design choices called out in
// DESIGN.md. Each benchmark reports the experiment's headline rate as a
// custom metric so `go test -bench` output doubles as a results summary.
package vmcloud

import (
	"testing"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/experiments"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/simtime"
	"vmcloud/internal/units"
	"vmcloud/internal/workload"
)

// BenchmarkTable2EC2Pricing regenerates Table 2: instance-hour pricing.
func BenchmarkTable2EC2Pricing(b *testing.B) {
	aws := pricing.AWS2012()
	small, err := aws.Compute.Instance("small")
	if err != nil {
		b.Fatal(err)
	}
	var last money.Money
	for i := 0; i < b.N; i++ {
		last = aws.Compute.HourCost(small, 50*time.Hour)
	}
	b.ReportMetric(last.Dollars(), "$small-50h")
}

// BenchmarkTable3Bandwidth regenerates Table 3: tiered egress pricing
// (Example 1's 10 GB result).
func BenchmarkTable3Bandwidth(b *testing.B) {
	aws := pricing.AWS2012()
	var last money.Money
	for i := 0; i < b.N; i++ {
		last = aws.Transfer.EgressCost(10 * units.GB)
	}
	b.ReportMetric(last.Dollars(), "$egress-10GB")
}

// BenchmarkTable4Storage regenerates Table 4: tiered storage pricing
// (Example 9's 550 GB-year).
func BenchmarkTable4Storage(b *testing.B) {
	aws := pricing.AWS2012()
	var last money.Money
	for i := 0; i < b.N; i++ {
		last = aws.Storage.CostFor(550*units.GB, 12)
	}
	b.ReportMetric(last.Dollars(), "$storage-550GBy")
}

// BenchmarkRunningExample regenerates the paper's worked Examples 1–9.
func BenchmarkRunningExample(b *testing.B) {
	var matches int
	for i := 0; i < b.N; i++ {
		checks, err := experiments.RunWorkedExamples()
		if err != nil {
			b.Fatal(err)
		}
		matches = 0
		for _, c := range checks {
			if c.Match {
				matches++
			}
		}
	}
	// 6 of 7 match; Example 3 reproduces the formula, not the paper's typo.
	b.ReportMetric(float64(matches), "examples-matched")
}

// BenchmarkIntroExample regenerates the introduction's $62-vs-$64.60
// motivating example.
func BenchmarkIntroExample(b *testing.B) {
	var ex experiments.IntroExample
	var err error
	for i := 0; i < b.N; i++ {
		ex, err = experiments.RunIntroExample()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ex.With.Total().Dollars(), "$with-views")
}

// BenchmarkFigure5aTable6 regenerates Figure 5(a) / Table 6: scenario MV1
// across the 3/5/10-query workloads. The custom metrics are the improved-
// performance rates (paper: 25% / 36% / 60%).
func BenchmarkFigure5aTable6(b *testing.B) {
	var rows []experiments.MV1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunMV1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].IPRate*100, "IP%-3q")
	b.ReportMetric(rows[1].IPRate*100, "IP%-5q")
	b.ReportMetric(rows[2].IPRate*100, "IP%-10q")
}

// BenchmarkFigure5bTable7 regenerates Figure 5(b) / Table 7: scenario MV2.
// The custom metrics are the improved-cost rates (paper: 75% / 72% / 75%).
func BenchmarkFigure5bTable7(b *testing.B) {
	var rows []experiments.MV2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunMV2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ICRate*100, "IC%-3q")
	b.ReportMetric(rows[1].ICRate*100, "IC%-5q")
	b.ReportMetric(rows[2].ICRate*100, "IC%-10q")
}

// BenchmarkFigure5cTable8 regenerates Figure 5(c) / Table 8 column α=0.3
// (paper rates: 55% / 50% / 68%).
func BenchmarkFigure5cTable8(b *testing.B) {
	benchMV3(b, 0.3)
}

// BenchmarkFigure5dTable8 regenerates Figure 5(d) / Table 8 column α=0.7
// (paper rates: 32% / 35% / 45%; the figure caption says α=0.65 — see
// BenchmarkFigure5dAlpha065).
func BenchmarkFigure5dTable8(b *testing.B) {
	benchMV3(b, 0.7)
}

// BenchmarkFigure5dAlpha065 runs the caption's α=0.65 variant.
func BenchmarkFigure5dAlpha065(b *testing.B) {
	benchMV3(b, 0.65)
}

func benchMV3(b *testing.B, alpha float64) {
	b.Helper()
	var rows []experiments.MV3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunMV3(alpha)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Rate*100, "rate%-3q")
	b.ReportMetric(rows[1].Rate*100, "rate%-5q")
	b.ReportMetric(rows[2].Rate*100, "rate%-10q")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationKnapsackVsExhaustive compares the knapsack DP against
// the exhaustive oracle on the 10-query MV1 instance: runtime difference
// plus the oracle-vs-DP time gap as a metric.
func BenchmarkAblationKnapsackVsExhaustive(b *testing.B) {
	s, err := experiments.NewSetup(10, experiments.OneShot())
	if err != nil {
		b.Fatal(err)
	}
	budget, err := s.MV1Budget()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("knapsack", func(b *testing.B) {
		sess, err := optimizer.NewSession(s.Ev, s.Cands)
		if err != nil {
			b.Fatal(err)
		}
		var sel optimizer.Selection
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sel, err = sess.SolveMV1(budget)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sel.Time.Hours(), "h-selected")
	})
	b.Run("exhaustive", func(b *testing.B) {
		var sel optimizer.Selection
		sc := optimizer.Budget(budget)
		for i := 0; i < b.N; i++ {
			sel, err = s.Ev.SolveExhaustive(s.Cands, func(t time.Duration, bill costmodel.Bill) float64 {
				return sc.Score(optimizer.Outcome{Time: t, Cost: bill.Total()})
			}, sc.Met)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sel.Time.Hours(), "h-selected")
	})
}

// BenchmarkAblationBillingGranularity prices the running example's 50.5 h
// workload under each billing granularity — the rounding design choice the
// paper's Example 2 hinges on.
func BenchmarkAblationBillingGranularity(b *testing.B) {
	for _, g := range []units.BillingGranularity{
		units.BillPerHour, units.BillPerMinute, units.BillPerSecond, units.BillExact,
	} {
		g := g
		b.Run(g.String(), func(b *testing.B) {
			prov := pricing.AWS2012()
			prov.Compute.Granularity = g
			small, err := prov.Compute.Instance("small")
			if err != nil {
				b.Fatal(err)
			}
			var last money.Money
			for i := 0; i < b.N; i++ {
				last = prov.Compute.HourCost(small, 50*time.Hour+30*time.Minute).MulInt(2)
			}
			b.ReportMetric(last.Dollars(), "$50.5h-2xsmall")
		})
	}
}

// BenchmarkAblationSlabVsGraduated prices Example 3's storage timeline
// under both tier semantics — the ambiguity Section 6 of DESIGN.md
// documents.
func BenchmarkAblationSlabVsGraduated(b *testing.B) {
	tl := simtime.Timeline{
		Initial: 512 * units.GB,
		Horizon: 12,
		Events:  []simtime.Event{{At: 7, Delta: 2048 * units.GB}},
	}
	for _, mode := range []pricing.TierMode{pricing.Slab, pricing.Graduated} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			prov := pricing.AWS2012()
			prov.Storage.Table.Mode = mode
			var last money.Money
			var err error
			for i := 0; i < b.N; i++ {
				last, err = costmodel.StorageCost(prov, tl)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.Dollars(), "$storage")
		})
	}
}

// BenchmarkAblationScaleOutVsViews runs the introduction's tradeoff sweep:
// the cheapest way to bring the daily 10-query workload under 16 cluster
// hours, scale-out vs views. Metrics report the two answers' fleet sizes.
func BenchmarkAblationScaleOutVsViews(b *testing.B) {
	l, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Sales(l, 10)
	if err != nil {
		b.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	var without, with int
	for i := 0; i < b.N; i++ {
		cmp, err := Compare(CompareRequest{
			Config:     AdvisorConfig{Workload: w},
			Providers:  []Provider{AWS2012()},
			FleetSizes: []int{2, 5, 10, 20, 40},
			Scenarios:  []string{"mv3"},
		})
		if err != nil {
			b.Fatal(err)
		}
		without, with = -1, -1
		for _, cr := range cmp.Configs { // fleets ascending
			r, _ := cr.Result("mv3")
			if without == -1 && r.BaselineTime <= 16*time.Hour {
				without = cr.Instances
			}
			if with == -1 && r.Selection.Time <= 16*time.Hour {
				with = cr.Instances
			}
		}
	}
	b.ReportMetric(float64(without), "instances-no-views")
	b.ReportMetric(float64(with), "instances-with-views")
}

// BenchmarkAblationCandidateBudget sweeps the candidate-set size handed to
// the knapsack, measuring solve time and achieved workload time.
func BenchmarkAblationCandidateBudget(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		k := k
		b.Run(string(rune('0'+k))+"cands", func(b *testing.B) {
			s, err := experiments.NewSetup(10, experiments.OneShot())
			if err != nil {
				b.Fatal(err)
			}
			cands := s.Cands
			if len(cands) > k {
				cands = cands[:k]
			}
			budget, err := s.MV1Budget()
			if err != nil {
				b.Fatal(err)
			}
			sess, err := optimizer.NewSession(s.Ev, cands)
			if err != nil {
				b.Fatal(err)
			}
			var sel optimizer.Selection
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel, err = sess.SolveMV1(budget)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sel.Time.Hours(), "h-selected")
		})
	}
}
