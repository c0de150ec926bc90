package vmcloud

import (
	"math"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/datagen"
	"vmcloud/internal/engine"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// TestMeasuredCalibration closes the loop between the execution substrate
// and the analytical cost model: the workload runs for real on a 1/1000-
// scale generated dataset, the cluster simulator converts measured bytes
// into cloud hours via DataScale, and the result must agree with the
// analytical estimator's prediction for the full-size dataset — the whole
// premise of client-side view selection.
func TestMeasuredCalibration(t *testing.T) {
	const (
		localRows = 200_000
		fullRows  = 200_000_000
		scale     = float64(fullRows) / float64(localRows)
	)
	ds, err := datagen.GenerateSales(datagen.Config{Rows: localRows, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := cluster.New(pricing.AWS2012(), "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	cl.DataScale = scale

	// Measured: run the ten queries against the base table.
	w, err := workload.Sales(ex.Lat, 10)
	if err != nil {
		t.Fatal(err)
	}
	measured := cl.TimeFor(scanned(t, ex, w))

	// Analytical: the estimator's prediction at full scale on an identical
	// but unscaled cluster (no per-job overhead on either path).
	fullLat, err := NewLattice(SalesSchema(), fullRows)
	if err != nil {
		t.Fatal(err)
	}
	fullW, err := SalesWorkload(fullLat, 10)
	if err != nil {
		t.Fatal(err)
	}
	analyticCl, err := cluster.New(pricing.AWS2012(), "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	analytic := fullW.ScanTime(fullLat, nil, analyticCl.TimeFor)

	// The two must agree closely: both are 10 full scans of ~10 GB.
	ratio := float64(measured) / float64(analytic)
	if math.Abs(ratio-1) > 0.05 {
		t.Errorf("measured %v vs analytic %v (ratio %.3f), want within 5%%",
			measured, analytic, ratio)
	}
}

// TestMeasuredViewSpeedup verifies the same calibration WITH views: the
// measured speedup from materializing the advisor's candidates approaches
// the analytic prediction.
func TestMeasuredViewSpeedup(t *testing.T) {
	ds, err := datagen.GenerateSales(datagen.Config{Rows: 100_000, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(ex.Lat, 10)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(ex.Lat, w, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Measured: bytes scanned without views...
	withoutBytes := scanned(t, ex, w)

	// ...then with the candidates materialized (materialization excluded
	// from the query-path measurement).
	for _, c := range cands {
		if _, err := ex.Materialize(c.Point); err != nil {
			t.Fatal(err)
		}
	}
	withBytes := scanned(t, ex, w)

	measuredReduction := 1 - float64(withBytes)/float64(withoutBytes)
	if measuredReduction < 0.5 {
		t.Errorf("views only cut scanned bytes by %.1f%%, expected a large reduction", measuredReduction*100)
	}

	// Analytic prediction of the same reduction at local scale.
	base := w.ScanTime(ex.Lat, nil, linearTime)
	withViews := w.ScanTime(ex.Lat, views.Points(cands), linearTime)
	analyticReduction := 1 - float64(withViews)/float64(base)
	if math.Abs(measuredReduction-analyticReduction) > 0.15 {
		t.Errorf("measured reduction %.3f vs analytic %.3f", measuredReduction, analyticReduction)
	}
}

// scanned runs every query of w on the smallest table that answers it,
// the routing Formula 9 assumes, and returns the bytes the engine scanned.
func scanned(t *testing.T, ex *engine.Executor, w workload.Workload) units.DataSize {
	t.Helper()
	var total units.DataSize
	for _, q := range w.Queries {
		src := ex.DS.Facts
		for _, p := range ex.Views() {
			if v, _ := ex.View(p); p.FinerOrEqual(q.Point) && v.Rows() < src.Rows() {
				src = v
			}
		}
		res, err := engine.Aggregate(ex.DS, src, q.Point, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		total += res.Stats.BytesScanned
	}
	return total
}

// linearTime is a unit-throughput volume→time stand-in for ratio checks.
func linearTime(s units.DataSize) time.Duration {
	return time.Duration(s)
}

// TestScaleOutFacade asks the introduction's scale-out question through
// the facade: one Compare over instance types and fleet sizes, each
// configuration priced with and without views.
func TestScaleOutFacade(t *testing.T) {
	l, err := NewLattice(SalesSchema(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := SalesWorkload(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	cmp, err := Compare(CompareRequest{
		Config:        AdvisorConfig{Workload: w},
		Providers:     []Provider{AWS2012()},
		InstanceTypes: []string{"small", "large"},
		FleetSizes:    []int{2, 5},
		Scenarios:     []string{"mv3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Configs) != 4 { // 2 types × 2 sizes
		t.Fatalf("configs = %d, want 4", len(cmp.Configs))
	}
	// Large instances are 4× the price for 4× the ECU: faster wall clock.
	baseline := map[string]time.Duration{}
	for _, cr := range cmp.Configs {
		r, ok := cr.Result("mv3")
		if !ok || r.Selection.Time > r.BaselineTime {
			t.Errorf("%v: views slower than none: %v vs %v", cr.Key, r.Selection.Time, r.BaselineTime)
		}
		if cr.Instances == 2 {
			baseline[cr.InstanceType] = r.BaselineTime
		}
	}
	if baseline["large"] >= baseline["small"] {
		t.Errorf("large instances not faster: %v vs %v", baseline["large"], baseline["small"])
	}
}
