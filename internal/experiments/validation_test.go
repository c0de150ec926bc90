package experiments

import (
	"math"
	"testing"
)

func TestEngineValidationScanRatios(t *testing.T) {
	rows, err := RunEngineValidation(50_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.MeasuredBase != 50_000 {
			t.Errorf("%s: base scan = %d, want 50000", r.Query, r.MeasuredBase)
		}
		if r.MeasuredView > r.MeasuredBase {
			t.Errorf("%s: views increased scanned rows (%d > %d)", r.Query, r.MeasuredView, r.MeasuredBase)
		}
		// The model's core assumption: measured and analytic scan ratios
		// agree. The analytic side uses Cardenas estimates, the measured
		// side real data with skew, so allow a generous ×3 band — what
		// matters is the order of magnitude of the reduction.
		m, a := r.MeasuredRatio(), r.AnalyticRatio()
		if m == 0 && a == 0 {
			continue
		}
		if m > 0 && a > 0 {
			ratio := m / a
			if ratio > 3 || ratio < 1.0/3 {
				t.Errorf("%s: measured ratio %.5f vs analytic %.5f (off ×%.1f)",
					r.Query, m, a, math.Max(ratio, 1/ratio))
			}
		}
	}
	// Queries answerable by small views must show a large measured
	// reduction (the whole point of materialization).
	first := rows[0] // profit per year and country
	if first.MeasuredRatio() > 0.05 {
		t.Errorf("year×country only reduced scans to %.3f of base", first.MeasuredRatio())
	}
}

func TestEngineValidationRouting(t *testing.T) {
	rows, err := RunEngineValidation(20_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Query == "profit per day and department" {
			// Base-grain query: no view can answer it.
			if r.Source != "facts" {
				t.Errorf("base-grain query routed to %s", r.Source)
			}
			if r.MeasuredView != r.MeasuredBase {
				t.Errorf("base-grain query scans differ: %d vs %d", r.MeasuredView, r.MeasuredBase)
			}
			continue
		}
		// A query is only expected to leave the base table when some
		// candidate actually answers it more cheaply (the HRU pre-selection
		// may drop big fine-grained views like day×region).
		if r.AnalyticView < r.AnalyticBase && r.Source == "facts" {
			t.Errorf("%s has an answering candidate but routed to the base table", r.Query)
		}
	}
}

// TestModelValidationRanks gates the committed validation table (ROADMAP
// item 5): at each scale Formula 9 must rank all 2⁸ selections of the HRU
// candidates at least as well as it did when committed (τ-b 0.5247,
// 0.6029, 0.8697, 0.9998), and the agreement must rise with scale as the
// Cardenas estimates converge on the skewed data. Wall time is reported,
// not gated.
func TestModelValidationRanks(t *testing.T) {
	vs, err := RunModelValidation()
	if err != nil {
		t.Fatal(err)
	}
	floors := []float64{0.52, 0.60, 0.86, 0.999}
	if len(vs) != len(floors) {
		t.Fatalf("%d scales, want %d", len(vs), len(floors))
	}
	for i, v := range vs {
		if len(v.Candidates) != CandidateBudget {
			t.Errorf("%d rows: %d candidates, want %d", v.FactRows, len(v.Candidates), CandidateBudget)
		}
		if v.Tau < floors[i] {
			t.Errorf("%d rows: τ-b %.4f below its floor %.3f", v.FactRows, v.Tau, floors[i])
		}
		if i > 0 && v.Tau <= vs[i-1].Tau {
			t.Errorf("τ-b fell with scale: %.4f at %d rows after %.4f at %d", v.Tau, v.FactRows, vs[i-1].Tau, vs[i-1].FactRows)
		}
	}
	t.Logf("\n%s", ModelValidationTable(vs))
}

func TestKendallTauB(t *testing.T) {
	for _, c := range []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3}, []float64{10, 20, 30}, 1},
		{[]float64{1, 2, 3}, []float64{30, 20, 10}, -1},
		// One tie in x: 2 concordant pairs, denominators √(2·3).
		{[]float64{1, 1, 2}, []float64{1, 2, 3}, 2 / math.Sqrt(6)},
	} {
		if got := kendallTauB(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("τ-b(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}
