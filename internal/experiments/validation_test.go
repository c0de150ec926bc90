package experiments

import (
	"math"
	"testing"
)

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
