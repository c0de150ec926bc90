package engine

import (
	"math/rand"
	"testing"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/storage"
)

// threeDimDataset proves the whole stack generalizes beyond the paper's
// 2-dimensional sales schema: time × geography × product, 3 levels + ALL
// each, hand-built rollup maps and random facts.
func threeDimDataset(t testing.TB, rows int) *storage.Dataset {
	t.Helper()
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
	w2q := make([]int32, 52)
	for i := range w2q {
		w2q[i] = int32(i / 13)
	}
	s2s := make([]int32, 40)
	for i := range s2s {
		s2s[i] = int32(i / 5)
	}
	k2c := make([]int32, 100)
	for i := range k2c {
		k2c[i] = int32(i / 10)
	}
	facts := storage.NewTable("facts", lattice.Point{0, 0, 0}, 1, rows)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < rows; i++ {
		if err := facts.Append(
			[]int32{int32(rng.Intn(52)), int32(rng.Intn(40)), int32(rng.Intn(100))},
			[]int64{int64(rng.Intn(1000) + 1)},
		); err != nil {
			t.Fatal(err)
		}
	}
	ds := &storage.Dataset{
		Schema: s,
		Facts:  facts,
		Maps: map[string][]int32{
			schema.MapName("week", "quarter"): w2q,
			schema.MapName("store", "state"):  s2s,
			schema.MapName("sku", "category"): k2c,
		},
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestThreeDimLatticeShape(t *testing.T) {
	ds := threeDimDataset(t, 100)
	l, err := lattice.New(ds.Schema, int64(ds.Facts.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 27 { // 3×3×3 levels incl. ALL
		t.Fatalf("nodes = %d, want 27", l.NumNodes())
	}
	apex := l.NodeByID(l.NumNodes() - 1)
	if apex.Rows != 1 {
		t.Errorf("apex rows = %d", apex.Rows)
	}
}

func TestThreeDimTotalInvariant(t *testing.T) {
	ds := threeDimDataset(t, 5000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := totalProfit(ds.Facts)
	for _, n := range ex.Lat.Nodes() {
		res, err := Aggregate(ds, ds.Facts, n.Point, Options{})
		if err != nil {
			t.Fatalf("%v: %v", n.Point, err)
		}
		if got := totalProfit(res.Table); got != want {
			t.Errorf("cuboid %s total = %d, want %d", ex.Lat.Name(n.Point), got, want)
		}
	}
}

func TestThreeDimViewRouting(t *testing.T) {
	ds := threeDimDataset(t, 5000)
	ex, err := NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize week×state×category; it must answer quarter×state×ALL.
	mid, err := ex.Lat.PointOf("week", "state", "category")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Materialize(mid); err != nil {
		t.Fatal(err)
	}
	q, err := ex.Lat.PointOf("quarter", "state", "all")
	if err != nil {
		t.Fatal(err)
	}
	if src := ex.cheapestSource(q); src.Name != "mv:week×state×category" {
		t.Errorf("routed to %s", src.Name)
	}
	fromView, err := ex.Answer(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Aggregate(ds, ds.Facts, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "3d rollup", direct.Table, fromView.Table)
}
