package views

import (
	"math/rand"
	"testing"

	"vmcloud/internal/datagen"
	"vmcloud/internal/engine"
	"vmcloud/internal/lattice"
	"vmcloud/internal/storage"
)

func freshExecutor(t *testing.T, rows int) *engine.Executor {
	t.Helper()
	ds, err := datagen.GenerateSales(datagen.Config{Rows: rows, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := engine.NewExecutor(ds)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// randomBatch builds an insert batch of new fact rows at base grain.
func randomBatch(ex *engine.Executor, n int, seed int64) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	days := ex.DS.Schema.Dimensions[0].Levels[0].Cardinality
	depts := ex.DS.Schema.Dimensions[1].Levels[0].Cardinality
	b := storage.NewTable("batch", lattice.Point{0, 0}, 1, n)
	for i := 0; i < n; i++ {
		_ = b.Append(
			[]int32{int32(rng.Intn(days)), int32(rng.Intn(depts))},
			[]int64{int64(rng.Intn(5000) + 1)},
		)
	}
	return b
}

// The central invariant: incremental refresh must equal rematerialization
// from scratch, for every materialized view.
func TestIncrementalRefreshEqualsRematerialization(t *testing.T) {
	ex := freshExecutor(t, 10_000)
	mc, _ := ex.Lat.PointOf("month", "country")
	yr, _ := ex.Lat.PointOf("year", "region")
	apex := ex.Lat.NodeByID(ex.Lat.NumNodes() - 1).Point
	for _, p := range []lattice.Point{mc, yr, apex} {
		if _, err := ex.Materialize(p); err != nil {
			t.Fatal(err)
		}
	}

	batch := randomBatch(ex, 2_000, 99)
	stats, err := ApplyInsertBatch(ex, batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowsScanned < int64(batch.Rows()) {
		t.Errorf("refresh stats report %d rows scanned, want at least the batch's %d",
			stats.RowsScanned, batch.Rows())
	}

	for _, p := range []lattice.Point{mc, yr, apex} {
		refreshed, _ := ex.View(p)
		// Rebuild from the (now updated) base.
		direct, err := engine.Aggregate(ex.DS, ex.DS.Facts, p, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if refreshed.Rows() != direct.Table.Rows() {
			t.Fatalf("%s: refreshed %d rows, direct %d", ex.Lat.Name(p), refreshed.Rows(), direct.Table.Rows())
		}
		for r := 0; r < refreshed.Rows(); r++ {
			for d := range refreshed.Keys {
				var rv, dv int32
				if refreshed.Keys[d] != nil {
					rv = refreshed.Keys[d][r]
				}
				if direct.Table.Keys[d] != nil {
					dv = direct.Table.Keys[d][r]
				}
				if rv != dv {
					t.Fatalf("%s row %d dim %d: %d vs %d", ex.Lat.Name(p), r, d, rv, dv)
				}
			}
			if refreshed.Measures[0][r] != direct.Table.Measures[0][r] {
				t.Fatalf("%s row %d: measure %d vs %d", ex.Lat.Name(p), r,
					refreshed.Measures[0][r], direct.Table.Measures[0][r])
			}
		}
	}
	// The base table grew by the batch.
	if ex.DS.Facts.Rows() != 12_000 {
		t.Errorf("facts rows = %d, want 12000", ex.DS.Facts.Rows())
	}
}

func TestApplyInsertBatchNewGroups(t *testing.T) {
	ex := freshExecutor(t, 500) // sparse: many groups missing
	mc, _ := ex.Lat.PointOf("month", "country")
	if _, err := ex.Materialize(mc); err != nil {
		t.Fatal(err)
	}
	before, _ := ex.View(mc)
	beforeRows := before.Rows()

	// A large batch certainly creates new (month, country) groups.
	batch := randomBatch(ex, 5_000, 123)
	if _, err := ApplyInsertBatch(ex, batch); err != nil {
		t.Fatal(err)
	}
	after, _ := ex.View(mc)
	if after.Rows() <= beforeRows {
		t.Errorf("view rows %d did not grow from %d", after.Rows(), beforeRows)
	}
	// And stays sorted.
	for r := 1; r < after.Rows(); r++ {
		prev := int64(after.Keys[0][r-1])*1000 + int64(after.Keys[1][r-1])
		cur := int64(after.Keys[0][r])*1000 + int64(after.Keys[1][r])
		if cur <= prev {
			t.Fatalf("view unsorted at row %d", r)
		}
	}
}

func TestApplyInsertBatchErrors(t *testing.T) {
	ex := freshExecutor(t, 100)
	if _, err := ApplyInsertBatch(nil, nil); err == nil {
		t.Error("nil args accepted")
	}
	if _, err := ApplyInsertBatch(ex, nil); err == nil {
		t.Error("nil batch accepted")
	}
	// Wrong grain.
	yc, _ := ex.Lat.PointOf("year", "country")
	bad := storage.NewTable("bad", yc, 1, 1)
	_ = bad.Append([]int32{0, 0}, []int64{1})
	if _, err := ApplyInsertBatch(ex, bad); err == nil {
		t.Error("non-base batch accepted")
	}
	// Wrong measures.
	bad2 := storage.NewTable("bad2", lattice.Point{0, 0}, 2, 1)
	_ = bad2.Append([]int32{0, 0}, []int64{1, 2})
	if _, err := ApplyInsertBatch(ex, bad2); err == nil {
		t.Error("measure-mismatched batch accepted")
	}
}

func TestApplyInsertBatchNoViews(t *testing.T) {
	ex := freshExecutor(t, 100)
	batch := randomBatch(ex, 50, 7)
	if _, err := ApplyInsertBatch(ex, batch); err != nil {
		t.Fatal(err)
	}
	if ex.DS.Facts.Rows() != 150 {
		t.Errorf("facts rows = %d, want 150", ex.DS.Facts.Rows())
	}
}

func TestRepeatedBatchesStayConsistent(t *testing.T) {
	ex := freshExecutor(t, 2_000)
	apex := ex.Lat.NodeByID(ex.Lat.NumNodes() - 1).Point
	if _, err := ex.Materialize(apex); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ApplyInsertBatch(ex, randomBatch(ex, 300, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	view, _ := ex.View(apex)
	var want int64
	for _, v := range ex.DS.Facts.Measures[0] {
		want += v
	}
	if view.Measures[0][0] != want {
		t.Errorf("apex total after 5 batches = %d, want %d", view.Measures[0][0], want)
	}
}
