package engine

import (
	"fmt"
	"testing"

	"vmcloud/internal/datagen"
	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/storage"
)

func salesDS(t testing.TB, rows int) *storage.Dataset {
	t.Helper()
	ds, err := datagen.GenerateSales(datagen.Config{Rows: rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func totalProfit(tb *storage.Table) int64 {
	var sum int64
	for _, v := range tb.Measures[0] {
		sum += v
	}
	return sum
}

// Answer evaluates the query at q on the table the executor routes it
// to: the smallest answering view, else the base table.
func (e *Executor) Answer(q lattice.Point, opts Options) (*Result, error) {
	return Aggregate(e.DS, e.cheapestSource(q), q, opts)
}

func TestAggregateToApexMatchesDirectSum(t *testing.T) {
	ds := salesDS(t, 10_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Answer(ex.Lat.NodeByID(ex.Lat.NumNodes()-1).Point, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows() != 1 {
		t.Fatalf("apex rows = %d, want 1", res.Table.Rows())
	}
	if got, want := res.Table.Measures[0][0], totalProfit(ds.Facts); got != want {
		t.Errorf("apex total = %d, direct sum = %d", got, want)
	}
	// ALL-level key columns are nil by convention.
	if res.Table.Keys[0] != nil || res.Table.Keys[1] != nil {
		t.Error("apex key columns should be nil")
	}
}

// Total profit is invariant at every cuboid of the lattice.
func TestTotalProfitInvariantAcrossLattice(t *testing.T) {
	ds := salesDS(t, 20_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := totalProfit(ds.Facts)
	for _, n := range ex.Lat.Nodes() {
		res, err := Aggregate(ds, ds.Facts, n.Point, Options{})
		if err != nil {
			t.Fatalf("aggregate to %v: %v", ex.Lat.Name(n.Point), err)
		}
		if got := totalProfit(res.Table); got != want {
			t.Errorf("cuboid %s total = %d, want %d", ex.Lat.Name(n.Point), got, want)
		}
		if res.Stats.RowsScanned != int64(ds.Facts.Rows()) {
			t.Errorf("cuboid %s scanned %d rows, want %d", ex.Lat.Name(n.Point), res.Stats.RowsScanned, ds.Facts.Rows())
		}
		if res.Stats.Groups != res.Table.Rows() {
			t.Errorf("cuboid %s stats groups mismatch", ex.Lat.Name(n.Point))
		}
	}
}

// Rollup transitivity: base→target equals base→mid→target for every
// comparable pair.
func TestRollupFromViewEqualsDirect(t *testing.T) {
	ds := salesDS(t, 15_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	monthRegion, _ := ex.Lat.PointOf("month", "region")
	mid, err := Aggregate(ds, ds.Facts, monthRegion, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ex.Lat.Nodes() {
		if n.Point.Equal(monthRegion) || !monthRegion.FinerOrEqual(n.Point) {
			continue // not strictly coarser
		}
		direct, err := Aggregate(ds, ds.Facts, n.Point, Options{})
		if err != nil {
			t.Fatal(err)
		}
		viaView, err := Aggregate(ds, mid.Table, n.Point, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, ex.Lat.Name(n.Point), direct.Table, viaView.Table)
	}
}

func assertTablesEqual(t *testing.T, label string, a, b *storage.Table) {
	t.Helper()
	if a.Rows() != b.Rows() {
		t.Fatalf("%s: rows %d vs %d", label, a.Rows(), b.Rows())
	}
	for r := 0; r < a.Rows(); r++ {
		for d := range a.Keys {
			av, bv := int32(0), int32(0)
			if a.Keys[d] != nil {
				av = a.Keys[d][r]
			}
			if b.Keys[d] != nil {
				bv = b.Keys[d][r]
			}
			if av != bv {
				t.Fatalf("%s: row %d dim %d key %d vs %d", label, r, d, av, bv)
			}
		}
		for m := range a.Measures {
			if a.Measures[m][r] != b.Measures[m][r] {
				t.Fatalf("%s: row %d measure %d: %d vs %d", label, r, m, a.Measures[m][r], b.Measures[m][r])
			}
		}
	}
}

func TestAggregateRejectsCoarserSource(t *testing.T) {
	ds := salesDS(t, 1000)
	ex, _ := NewExecutor(ds)
	yearCountry, _ := ex.Lat.PointOf("year", "country")
	monthCountry, _ := ex.Lat.PointOf("month", "country")
	coarse, err := Aggregate(ds, ds.Facts, yearCountry, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Aggregate(ds, coarse.Table, monthCountry, Options{}); err == nil {
		t.Error("aggregating a coarser table into a finer point was accepted")
	}
}

func TestAggregateArgumentErrors(t *testing.T) {
	ds := salesDS(t, 100)
	if _, err := Aggregate(nil, ds.Facts, lattice.Point{0, 0}, Options{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := Aggregate(ds, nil, lattice.Point{0, 0}, Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Aggregate(ds, ds.Facts, lattice.Point{0}, Options{}); err == nil {
		t.Error("wrong-arity point accepted")
	}
}

// referenceGroupBy is the engine's independent per-group oracle: it lifts
// each fact row's keys to target through ds.MapChain and sums every
// measure by composite key in a map — no slot table, no radices.
func referenceGroupBy(t *testing.T, ds *storage.Dataset, target lattice.Point) map[string][]int64 {
	t.Helper()
	chains := make([][][]int32, len(target))
	for d := range target {
		chain, err := ds.MapChain(d, 0, target[d])
		if err != nil {
			t.Fatal(err)
		}
		chains[d] = chain
	}
	out := map[string][]int64{}
	for r := 0; r < ds.Facts.Rows(); r++ {
		keys := make([]int32, len(target))
		for d := range target {
			if target[d] == len(ds.Schema.Dimensions[d].Levels)-1 {
				continue // ALL: the constant key 0
			}
			keys[d] = ds.Facts.Keys[d][r]
			for _, m := range chains[d] {
				keys[d] = m[keys[d]]
			}
		}
		k := fmt.Sprint(keys)
		if out[k] == nil {
			out[k] = make([]int64, len(ds.Facts.Measures))
		}
		for m, col := range ds.Facts.Measures {
			out[k][m] += col[r]
		}
	}
	return out
}

// assertMatchesReference compares an engine result with referenceGroupBy
// group by group.
func assertMatchesReference(t *testing.T, label string, got *storage.Table, want map[string][]int64) {
	t.Helper()
	if got.Rows() != len(want) {
		t.Fatalf("%s: %d groups, reference has %d", label, got.Rows(), len(want))
	}
	for r := 0; r < got.Rows(); r++ {
		keys := make([]int32, len(got.Keys))
		for d, col := range got.Keys {
			if col != nil {
				keys[d] = col[r]
			}
		}
		ref, ok := want[fmt.Sprint(keys)]
		if !ok {
			t.Fatalf("%s: group %v not in the reference", label, keys)
		}
		for m, col := range got.Measures {
			if col[r] != ref[m] {
				t.Fatalf("%s: group %v measure %d = %d, reference %d", label, keys, m, col[r], ref[m])
			}
		}
	}
}

// Every sales cuboid, aggregated from the fact table and answered from a
// materialized finer view, equals an independent map-based group-by.
func TestAggregateMatchesReferenceGroupBy(t *testing.T) {
	ds := salesDS(t, 20_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Between them the two maximal non-base cuboids answer every other one.
	for _, names := range [][]string{{"day", "region"}, {"month", "department"}} {
		p, _ := ex.Lat.PointOf(names...)
		if _, err := ex.Materialize(p); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ex.Lat.Nodes()); n != 16 {
		t.Fatalf("sales lattice has %d cuboids, want 16", n)
	}
	for _, n := range ex.Lat.Nodes() {
		name := ex.Lat.Name(n.Point)
		want := referenceGroupBy(t, ds, n.Point)
		direct, err := Aggregate(ds, ds.Facts, n.Point, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, name+" from facts", direct.Table, want)
		if n.Point.Equal(ex.Lat.Base()) {
			continue
		}
		src := ex.cheapestSource(n.Point)
		if src == ds.Facts {
			t.Fatalf("%s: no materialized view answers it", name)
		}
		viaView, err := ex.Answer(n.Point, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, name+" from "+src.Name, viaView.Table, want)
	}
}

// Two views that answer a query with equal row counts must route it the
// same way every time: the first-materialized one wins.
func TestExecutorRoutingTieIsDeterministic(t *testing.T) {
	s := &schema.Schema{
		Name: "tie",
		Dimensions: []schema.Dimension{
			schema.NewDimension("a", schema.Level{Name: "a", Cardinality: 4}),
			schema.NewDimension("b", schema.Level{Name: "b", Cardinality: 4}),
		},
		Measures: []schema.Measure{{Name: "v", Kind: schema.Sum}},
		RowBytes: 16,
	}
	facts := storage.NewTable("facts", lattice.Point{0, 0}, 1, 16)
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 4; b++ {
			if err := facts.Append([]int32{a, b}, []int64{int64(a*4 + b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds := &storage.Dataset{Schema: s, Facts: facts}
	aAll, bAll, apex := lattice.Point{0, 1}, lattice.Point{1, 0}, lattice.Point{1, 1}
	for i := 0; i < 200; i++ {
		ex, err := NewExecutor(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []lattice.Point{aAll, bAll} {
			if _, err := ex.Materialize(p); err != nil {
				t.Fatal(err)
			}
		}
		if got := ex.cheapestSource(apex).Name; got != "mv:a×all" {
			t.Fatalf("executor %d routed the apex to %s, want the first-materialized mv:a×all", i, got)
		}
	}
}

func TestExecutorRoutesToCheapestView(t *testing.T) {
	ds := salesDS(t, 20_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	monthCountry, _ := ex.Lat.PointOf("month", "country")
	yearCountry, _ := ex.Lat.PointOf("year", "country")

	baseline, err := ex.Answer(yearCountry, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Materialize(monthCountry); err != nil {
		t.Fatal(err)
	}
	if src := ex.cheapestSource(yearCountry); src.Name != "mv:month×country" {
		t.Errorf("routed to %s, want mv:month×country", src.Name)
	}
	fromView, err := ex.Answer(yearCountry, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "year×country", baseline.Table, fromView.Table)
	if fromView.Stats.RowsScanned >= baseline.Stats.RowsScanned {
		t.Errorf("view answer scanned %d rows, base scanned %d — view should be cheaper",
			fromView.Stats.RowsScanned, baseline.Stats.RowsScanned)
	}
}

func TestExecutorMaterializeFromFinerView(t *testing.T) {
	ds := salesDS(t, 10_000)
	ex, _ := NewExecutor(ds)
	monthCountry, _ := ex.Lat.PointOf("month", "country")
	yearCountry, _ := ex.Lat.PointOf("year", "country")
	if _, err := ex.Materialize(monthCountry); err != nil {
		t.Fatal(err)
	}
	res, err := ex.Materialize(yearCountry)
	if err != nil {
		t.Fatal(err)
	}
	// Should have scanned the month×country view, not the base table.
	mc, _ := ex.View(monthCountry)
	if res.Stats.RowsScanned != int64(mc.Rows()) {
		t.Errorf("materialization scanned %d rows, want view's %d", res.Stats.RowsScanned, mc.Rows())
	}
	direct, _ := Aggregate(ds, ds.Facts, yearCountry, Options{})
	yc, _ := ex.View(yearCountry)
	assertTablesEqual(t, "year×country", direct.Table, yc)
}

func TestExecutorViews(t *testing.T) {
	ds := salesDS(t, 2000)
	ex, _ := NewExecutor(ds)
	monthCountry, _ := ex.Lat.PointOf("month", "country")
	for i := 0; i < 2; i++ { // re-materializing replaces in place
		if _, err := ex.Materialize(monthCountry); err != nil {
			t.Fatal(err)
		}
	}
	if len(ex.Views()) != 1 {
		t.Fatalf("views = %v", ex.Views())
	}
	if _, err := ex.Materialize(ex.Lat.Base()); err == nil {
		t.Error("materializing base accepted")
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	ds := salesDS(t, 5000)
	ex, _ := NewExecutor(ds)
	yearCountry, _ := ex.Lat.PointOf("year", "country")
	a, err := Aggregate(ds, ds.Facts, yearCountry, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Aggregate(ds, ds.Facts, yearCountry, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "determinism", a.Table, b.Table)
	// Keys must be sorted by composite (year, country) order.
	for r := 1; r < a.Table.Rows(); r++ {
		py, pc := a.Table.Keys[0][r-1], a.Table.Keys[1][r-1]
		cy, cc := a.Table.Keys[0][r], a.Table.Keys[1][r]
		if cy < py || (cy == py && cc <= pc) {
			t.Fatalf("output not sorted at row %d: (%d,%d) after (%d,%d)", r, cy, cc, py, pc)
		}
	}
}

func BenchmarkAggregateBaseToYearCountry(b *testing.B) {
	ds := salesDS(b, 100_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		b.Fatal(err)
	}
	yearCountry, _ := ex.Lat.PointOf("year", "country")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(ds, ds.Facts, yearCountry, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateFromView(b *testing.B) {
	ds := salesDS(b, 100_000)
	ex, err := NewExecutor(ds)
	if err != nil {
		b.Fatal(err)
	}
	monthCountry, _ := ex.Lat.PointOf("month", "country")
	yearCountry, _ := ex.Lat.PointOf("year", "country")
	if _, err := ex.Materialize(monthCountry); err != nil {
		b.Fatal(err)
	}
	src, _ := ex.View(monthCountry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(ds, src, yearCountry, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
