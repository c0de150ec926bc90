package views

import (
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/lattice"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/workload"
)

func salesSetup(t testing.TB) (*lattice.Lattice, *cluster.Cluster) {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 200_000_000) // ≈ 10 GB at 50 B/row
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	return l, cl
}

func TestGenerateCandidatesBasics(t *testing.T) {
	l, _ := salesSetup(t)
	w, err := workload.Sales(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := GenerateCandidates(l, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || len(cands) > 8 {
		t.Fatalf("candidates = %d", len(cands))
	}
	base := l.Base()
	seen := map[string]bool{}
	for _, c := range cands {
		if c.Point.Equal(base) {
			t.Error("base cuboid offered as candidate")
		}
		if c.Benefit <= 0 {
			t.Errorf("candidate %v has benefit %d", l.Name(c.Point), c.Benefit)
		}
		if c.Size <= 0 || c.Rows <= 0 {
			t.Errorf("candidate %v has no size/rows", l.Name(c.Point))
		}
		name := l.Name(c.Point)
		if seen[name] {
			t.Errorf("duplicate candidate %s", name)
		}
		seen[name] = true
	}
}

func TestGenerateCandidatesReduceWorkloadCost(t *testing.T) {
	l, cl := salesSetup(t)
	w, _ := workload.Sales(l, 10)
	cands, err := GenerateCandidates(l, w, 6)
	if err != nil {
		t.Fatal(err)
	}
	before := w.ScanTime(l, nil, cl.TimeFor)
	after := w.ScanTime(l, Points(cands), cl.TimeFor)
	if after >= before {
		t.Errorf("candidates did not reduce workload time: %v vs %v", after, before)
	}
	// 10 queries, 9 of which can be answered by non-base cuboids: a good
	// candidate set should cut time substantially.
	if after > before/2 {
		t.Errorf("candidates cut time only from %v to %v", before, after)
	}
}

// Monotonicity: each successive candidate never increases workload time.
func TestCandidatePrefixMonotone(t *testing.T) {
	l, cl := salesSetup(t)
	w, _ := workload.Sales(l, 10)
	cands, _ := GenerateCandidates(l, w, 8)
	prev := w.ScanTime(l, nil, cl.TimeFor)
	for i := 1; i <= len(cands); i++ {
		cur := w.ScanTime(l, Points(cands[:i]), cl.TimeFor)
		if cur > prev {
			t.Errorf("prefix %d increased time: %v > %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestGenerateCandidatesErrors(t *testing.T) {
	l, _ := salesSetup(t)
	w, _ := workload.Sales(l, 3)
	if _, err := GenerateCandidates(l, w, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := GenerateCandidates(l, workload.Workload{}, 3); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestGenerateCandidatesStopsWhenNoBenefit(t *testing.T) {
	l, _ := salesSetup(t)
	// A workload of only the base-grain query: no view can help.
	w := workload.Workload{Queries: []workload.Query{{
		Name: "base", Point: l.Base(), Frequency: 1,
	}}}
	cands, err := GenerateCandidates(l, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("got %d candidates for a base-only workload", len(cands))
	}
}

func TestEstimatorTimes(t *testing.T) {
	l, cl := salesSetup(t)
	e := NewEstimator(l, cl)
	yearCountry, _ := l.PointOf("year", "country")
	monthCountry, _ := l.PointOf("month", "country")

	// Materialization scans the base: ≈ 10 GB / 50 GBph = 0.2 h.
	mt := e.MaterializationTime(yearCountry)
	if mt < 11*time.Minute || mt > 13*time.Minute {
		t.Errorf("materialization time = %v, want ≈12m", mt)
	}
	if got := e.TotalMaterializationTime([]lattice.Point{yearCountry, monthCountry}); got != e.MaterializationTime(yearCountry)+e.MaterializationTime(monthCountry) {
		t.Errorf("total materialization != sum of parts: %v", got)
	}

	// Query from view is much faster than from base.
	q := workload.Workload{Queries: []workload.Query{{Name: "yc", Point: yearCountry, Frequency: 1}}}
	qBase := e.WorkloadTime(q, nil)
	qView := e.WorkloadTime(q, []lattice.Point{monthCountry})
	if qView >= qBase {
		t.Errorf("query from view %v not faster than base %v", qView, qBase)
	}

	// Maintenance scales with the number of runs.
	e.MaintenanceRuns = 1
	m1 := e.MaintenanceTime(monthCountry)
	e.MaintenanceRuns = 4
	m4 := e.MaintenanceTime(monthCountry)
	if m4 != 4*m1 {
		t.Errorf("maintenance: 4 runs = %v, want 4×%v", m4, m1)
	}
	if e.MaintenanceTime(lattice.Point{99, 99}) != 0 {
		t.Error("invalid point should cost 0 maintenance")
	}
	if got := e.TotalMaintenanceTime([]lattice.Point{monthCountry, yearCountry}); got != e.MaintenanceTime(monthCountry)+e.MaintenanceTime(yearCountry) {
		t.Errorf("total maintenance != sum: %v", got)
	}
}

func TestEstimatorWorkloadTimeMatchesScanTime(t *testing.T) {
	l, cl := salesSetup(t)
	e := NewEstimator(l, cl)
	w, _ := workload.Sales(l, 5)
	mc, _ := l.PointOf("month", "country")
	mat := []lattice.Point{mc}
	if e.WorkloadTime(w, mat) != w.ScanTime(l, mat, cl.TimeFor) {
		t.Error("WorkloadTime disagrees with ScanTime")
	}
}

func TestViewsSizeAndHelpers(t *testing.T) {
	l, _ := salesSetup(t)
	e := NewEstimator(l, nil)
	yc, _ := l.PointOf("year", "country")
	mc, _ := l.PointOf("month", "country")
	n1, _ := l.Node(yc)
	n2, _ := l.Node(mc)
	if got := e.ViewsSize([]lattice.Point{yc, mc}); got != n1.Size+n2.Size {
		t.Errorf("ViewsSize = %v, want %v", got, n1.Size+n2.Size)
	}
	cands := []Candidate{
		{Point: mc, Size: n2.Size},
		{Point: yc, Size: n1.Size},
	}
	pts := Points(cands)
	if len(pts) != 2 || !pts[0].Equal(cands[0].Point) {
		t.Error("Points wrong")
	}
}

func TestCandidateBenefitsAreNonIncreasing(t *testing.T) {
	// Greedy benefit-per-space: recorded benefits should broadly shrink as
	// the set grows (each new view has less left to improve). We assert
	// non-strict monotonicity of benefit-per-byte, the actual greedy key.
	l, _ := salesSetup(t)
	w, _ := workload.Sales(l, 10)
	cands, _ := GenerateCandidates(l, w, 8)
	for i := 1; i < len(cands); i++ {
		prev := float64(cands[i-1].Benefit) / float64(cands[i-1].Size)
		cur := float64(cands[i].Benefit) / float64(cands[i].Size)
		if cur > prev*1.0000001 {
			t.Errorf("benefit-per-byte increased at step %d: %g > %g", i, cur, prev)
		}
	}
}

func TestUnits(t *testing.T) {
	// Estimator with 10 GB base: check baseSize wiring via materialization.
	l, cl := salesSetup(t)
	e := NewEstimator(l, cl)
	base, _ := l.Node(l.Base())
	if base.Size < 9*units.GB || base.Size > 11*units.GB {
		t.Fatalf("base size = %v, want ≈10 GB", base.Size)
	}
	_ = e
}

func TestDeferredMaintenanceCapsAtQueryHits(t *testing.T) {
	l, cl := salesSetup(t)
	e := NewEstimator(l, cl)
	e.MaintenanceRuns = 30 // nightly
	w, _ := workload.Sales(l, 3)
	for i := range w.Queries {
		w.Queries[i].Frequency = 2 // each query twice a month
	}
	cands, _ := GenerateCandidates(l, w, 4)
	pts := Points(cands)

	immediate := e.MaintenanceTimeForWorkload(pts, w)
	if immediate != e.TotalMaintenanceTime(pts) {
		t.Error("immediate policy should equal Formula 11")
	}

	e.Policy = DeferredMaintenance
	deferred := e.MaintenanceTimeForWorkload(pts, w)
	if deferred >= immediate {
		t.Errorf("deferred %v not cheaper than immediate %v with sparse queries", deferred, immediate)
	}
	if deferred == 0 {
		t.Error("deferred maintenance should still pay for served views")
	}

	// A view serving no queries costs nothing under the deferred policy.
	apex := l.NodeByID(l.NumNodes() - 1).Point
	unused := []lattice.Point{apex}
	// Build a workload that never touches the apex view... base-grain only.
	baseOnly := workload.Workload{Queries: []workload.Query{{
		Name: "base", Point: l.Base(), Frequency: 10,
	}}}
	if got := e.MaintenanceTimeForWorkload(unused, baseOnly); got != 0 {
		t.Errorf("unused view maintenance = %v, want 0", got)
	}

	// With very frequent queries, deferred converges to immediate.
	for i := range w.Queries {
		w.Queries[i].Frequency = 1000
	}
	if got := e.MaintenanceTimeForWorkload(pts, w); got != immediate {
		t.Errorf("hot deferred = %v, want immediate %v", got, immediate)
	}

	e.MaintenanceRuns = 0
	if got := e.MaintenanceTimeForWorkload(pts, w); got != 0 {
		t.Errorf("zero-run maintenance = %v, want 0", got)
	}
}

// The candidate generator and estimator run unchanged on a 3-dimensional
// schema (time × geo × product) — nothing in the selection machinery is
// specific to the paper's 2-dimensional sales example.
func TestThreeDimCandidatesAndEstimation(t *testing.T) {
	s := &schema.Schema{
		Name: "retail3d",
		Dimensions: []schema.Dimension{
			schema.NewDimension("time",
				schema.Level{Name: "week", Cardinality: 52},
				schema.Level{Name: "quarter", Cardinality: 4},
			),
			schema.NewDimension("geo",
				schema.Level{Name: "store", Cardinality: 40},
				schema.Level{Name: "state", Cardinality: 8},
			),
			schema.NewDimension("product",
				schema.Level{Name: "sku", Cardinality: 100},
				schema.Level{Name: "category", Cardinality: 10},
			),
		},
		Measures: []schema.Measure{{Name: "revenue", Kind: schema.Sum}},
		RowBytes: 32,
	}
	l, err := lattice.New(s, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 27 {
		t.Fatalf("nodes = %d, want 27", l.NumNodes())
	}
	var w workload.Workload
	for _, names := range [][]string{
		{"quarter", "state", "category"},
		{"week", "state", "all"},
		{"quarter", "all", "category"},
		{"all", "state", "all"},
	} {
		p, err := l.PointOf(names...)
		if err != nil {
			t.Fatal(err)
		}
		w.Queries = append(w.Queries, workload.Query{Name: l.Name(p), Point: p, Frequency: 1})
	}
	cands, err := GenerateCandidates(l, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates on 3-dim schema")
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(l, cl)
	before := est.WorkloadTime(w, nil)
	after := est.WorkloadTime(w, Points(cands))
	if after >= before {
		t.Errorf("3-dim candidates did not help: %v vs %v", after, before)
	}
	if est.ViewsSize(Points(cands)) <= 0 {
		t.Error("candidate sizes missing")
	}
}
