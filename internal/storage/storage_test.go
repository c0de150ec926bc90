package storage

import (
	"testing"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
)

// tinyDataset builds a 2-dimension dataset with a handful of rows by hand.
func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	s := &schema.Schema{
		Name: "tiny",
		Dimensions: []schema.Dimension{
			schema.NewDimension("time",
				schema.Level{Name: "day", Cardinality: 6},
				schema.Level{Name: "month", Cardinality: 3},
			),
			schema.NewDimension("geo",
				schema.Level{Name: "city", Cardinality: 4},
				schema.Level{Name: "country", Cardinality: 2},
			),
		},
		Measures: []schema.Measure{{Name: "profit", Kind: schema.Sum}},
		RowBytes: 32,
	}
	facts := NewTable("facts", lattice.Point{0, 0}, 1, 8)
	rows := []struct {
		day, city int32
		profit    int64
	}{
		{0, 0, 10}, {1, 1, 20}, {2, 2, 30}, {3, 3, 40}, {4, 0, 50}, {5, 2, 60},
	}
	for _, r := range rows {
		if err := facts.Append([]int32{r.day, r.city}, []int64{r.profit}); err != nil {
			t.Fatal(err)
		}
	}
	ds := &Dataset{
		Schema: s,
		Facts:  facts,
		Maps: map[string][]int32{
			schema.MapName("day", "month"):    {0, 0, 1, 1, 2, 2},
			schema.MapName("city", "country"): {0, 0, 1, 1},
		},
		Labels: map[string][]string{"country": {"France", "Italy"}},
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAppendAndValidate(t *testing.T) {
	ds := tinyDataset(t)
	if ds.Facts.Rows() != 6 {
		t.Errorf("rows = %d, want 6", ds.Facts.Rows())
	}
	if err := ds.Facts.Append([]int32{0}, []int64{1}); err == nil {
		t.Error("wrong key arity accepted")
	}
	if err := ds.Facts.Append([]int32{0, 0}, nil); err == nil {
		t.Error("wrong measure arity accepted")
	}
}

func TestTableValidateDetectsMisalignment(t *testing.T) {
	ds := tinyDataset(t)
	ds.Facts.Keys[0] = ds.Facts.Keys[0][:3]
	if err := ds.Facts.Validate(); err == nil {
		t.Error("misaligned key column accepted")
	}
	ds = tinyDataset(t)
	ds.Facts.Measures[0] = append(ds.Facts.Measures[0], 1)
	if err := ds.Facts.Validate(); err == nil {
		t.Error("misaligned measure column accepted")
	}
}

func TestDatasetValidateRejects(t *testing.T) {
	ds := tinyDataset(t)
	ds.Schema = nil
	if err := ds.Validate(); err == nil {
		t.Error("nil schema accepted")
	}

	ds = tinyDataset(t)
	ds.Facts = nil
	if err := ds.Validate(); err == nil {
		t.Error("nil facts accepted")
	}

	ds = tinyDataset(t)
	delete(ds.Maps, schema.MapName("day", "month"))
	if err := ds.Validate(); err == nil {
		t.Error("missing rollup map accepted")
	}

	ds = tinyDataset(t)
	ds.Maps[schema.MapName("day", "month")] = []int32{0, 0, 1}
	if err := ds.Validate(); err == nil {
		t.Error("short rollup map accepted")
	}

	ds = tinyDataset(t)
	ds.Maps[schema.MapName("day", "month")] = []int32{0, 0, 1, 1, 2, 9}
	if err := ds.Validate(); err == nil {
		t.Error("out-of-range rollup entry accepted")
	}
}

func TestMapChain(t *testing.T) {
	ds := tinyDataset(t)
	// day → month: one hop.
	chain, err := ds.MapChain(0, 0, 1)
	if err != nil || len(chain) != 1 {
		t.Fatalf("chain day→month = %d maps, err %v; want 1", len(chain), err)
	}
	// day → day: empty.
	chain, err = ds.MapChain(0, 0, 0)
	if err != nil || len(chain) != 0 {
		t.Errorf("identity chain = %d maps, err %v", len(chain), err)
	}
	// day → ALL: empty (constant key).
	chain, err = ds.MapChain(0, 0, 2)
	if err != nil || chain != nil {
		t.Errorf("ALL chain = %v, err %v; want nil", chain, err)
	}
	// Downward mapping is an error.
	if _, err := ds.MapChain(0, 1, 0); err == nil {
		t.Error("downward chain accepted")
	}
	if _, err := ds.MapChain(5, 0, 1); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := ds.MapChain(0, 0, 9); err == nil {
		t.Error("out-of-range target level accepted")
	}
}

func TestNewTableShape(t *testing.T) {
	tb := NewTable("x", lattice.Point{1, 2}, 2, 4)
	if len(tb.Keys) != 2 || len(tb.Measures) != 2 || tb.Rows() != 0 {
		t.Errorf("NewTable shape wrong: %+v", tb)
	}
	if !tb.Point.Equal(lattice.Point{1, 2}) {
		t.Errorf("point = %v", tb.Point)
	}
}
