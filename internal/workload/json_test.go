package workload

import (
	"encoding/json"
	"reflect"
	"testing"

	"vmcloud/internal/jsondec"
	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
)

func testLattice(t *testing.T) *lattice.Lattice {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWorkloadJSONRoundTrip(t *testing.T) {
	l := testLattice(t)
	w, err := Sales(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 7
	}
	wire := w.JSON()
	if len(wire) != 5 {
		t.Fatalf("wire len = %d", len(wire))
	}
	if wire[0].Levels[0] != "year" || wire[0].Levels[1] != "country" {
		t.Errorf("first query levels = %v", wire[0].Levels)
	}
	if wire[0].Frequency != 7 {
		t.Errorf("frequency = %d", wire[0].Frequency)
	}
	got, err := FromJSON(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Queries) != len(w.Queries) {
		t.Fatalf("round trip lost queries: %d vs %d", len(got.Queries), len(w.Queries))
	}
	for i := range got.Queries {
		if !got.Queries[i].Point.Equal(w.Queries[i].Point) {
			t.Errorf("query %d point %v != %v", i, got.Queries[i].Point, w.Queries[i].Point)
		}
		if got.Queries[i].Frequency != w.Queries[i].Frequency {
			t.Errorf("query %d frequency %d != %d", i, got.Queries[i].Frequency, w.Queries[i].Frequency)
		}
	}
}

func TestFromJSONForms(t *testing.T) {
	l := testLattice(t)
	// Levels win over point; a bare point works; frequency defaults to 1;
	// names are filled from the lattice.
	w, err := FromJSON([]QueryJSON{
		{Levels: []string{"year", "country"}, Point: []int{0, 0}},
		{Point: []int{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := l.PointOf("year", "country")
	if !w.Queries[0].Point.Equal(want) {
		t.Errorf("levels did not win: %v", w.Queries[0].Point)
	}
	if w.Queries[1].Frequency != 1 {
		t.Errorf("default frequency = %d", w.Queries[1].Frequency)
	}
	if w.Queries[1].Name == "" {
		t.Error("name not filled")
	}
}

// TestFromJSONErrors pins the rejections word for word: they are 400
// bodies of the daemon, and they come from the tables' lattice, not
// from one built for the request.
func TestFromJSONErrors(t *testing.T) {
	cases := map[string]struct {
		qs   []QueryJSON
		want string
	}{
		"empty workload":     {nil, `workload: empty workload`},
		"no coordinates":     {[]QueryJSON{{Name: "mystery"}}, `workload: query 0: no levels or point given`},
		"unknown level":      {[]QueryJSON{{Levels: []string{"eon", "country"}}}, `workload: query 0: schema: dimension time has no level "eon"`},
		"wrong level count":  {[]QueryJSON{{Point: []int{0, 0}}, {Levels: []string{"year"}}}, `workload: query 1: lattice: want 2 level names, got 1`},
		"point out of range": {[]QueryJSON{{Point: []int{99, 0}}}, `workload: query 0: lattice: point [99 0] level 99 out of range [0,4)`},
		"point arity":        {[]QueryJSON{{Point: []int{1}}}, `workload: query 0: lattice: point [1] has 1 dims, schema has 2`},
		"negative frequency": {[]QueryJSON{{Point: []int{0, 0}, Frequency: -2}}, `workload: query 0 (day×department) has frequency -2`},
	}
	for name, c := range cases {
		if _, err := FromJSON(c.qs); err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", name, err, c.want)
		}
	}
}

// TestSalesTablesMatchLattice holds the tables to a lattice built the
// slow way at a real size: every cuboid, by levels and by point,
// resolves to the point and name that lattice gives, and the wire form
// names the levels its schema does.
func TestSalesTablesMatchLattice(t *testing.T) {
	l := testLattice(t)
	for _, n := range l.Nodes() {
		var levels []string
		for d, lv := range n.Point {
			levels = append(levels, l.Schema.Dimensions[d].Levels[lv].Name)
		}
		w, err := FromJSON([]QueryJSON{{Levels: levels}, {Point: n.Point, Name: "named", Frequency: 3}})
		if err != nil {
			t.Fatalf("%v: %v", n.Point, err)
		}
		for i, q := range w.Queries {
			if !q.Point.Equal(n.Point) {
				t.Errorf("%v: query %d resolved to %v", levels, i, q.Point)
			}
		}
		if got, want := w.Queries[0], (Query{Name: l.Name(n.Point), Point: n.Point, Frequency: 1}); got.Name != want.Name || got.Frequency != 1 {
			t.Errorf("%v: defaults %+v, want %+v", levels, got, want)
		}
		if w.Queries[1].Name != "named" || w.Queries[1].Frequency != 3 {
			t.Errorf("%v: explicit name and frequency lost: %+v", levels, w.Queries[1])
		}
		wire := w.JSON()
		if !reflect.DeepEqual(wire[0], QueryJSON{Name: l.Name(n.Point), Levels: levels, Point: n.Point, Frequency: 1}) {
			t.Errorf("%v: wire form %+v", levels, wire[0])
		}
	}
	// A point the schema does not have keeps its coordinates and gets
	// no level names.
	wire := Workload{Queries: []Query{{Name: "x", Point: lattice.Point{9, 9}, Frequency: 1}}}.JSON()
	if wire[0].Levels != nil || len(wire[0].Point) != 2 {
		t.Errorf("invalid point rendered as %+v", wire[0])
	}
	for n := 1; n <= 10; n++ {
		want, err := Sales(l, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SalesPrefix(n)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("SalesPrefix(%d) = %+v, %v; want %+v", n, got, err, want)
		}
	}
	for _, n := range []int{0, -1, 11} {
		_, want := Sales(l, n)
		if _, err := SalesPrefix(n); err == nil || err.Error() != want.Error() {
			t.Errorf("SalesPrefix(%d): %v, want %v", n, err, want)
		}
	}
	// The tables are shared: what one caller gets, it may change without
	// the next one seeing it.
	w, _ := SalesPrefix(3)
	w.Queries[0].Frequency = 99
	if again, _ := SalesPrefix(3); again.Queries[0].Frequency != 1 {
		t.Error("SalesPrefix handed out the tables' own rows")
	}
}

// TestQueryJSONCodecMatchesEncodingJSON holds the hand-written encoder
// and decoder of one wire query to encoding/json over the struct tags.
func TestQueryJSONCodecMatchesEncodingJSON(t *testing.T) {
	for _, q := range []QueryJSON{
		{},
		{Name: "profit per year and country", Levels: []string{"year", "country"}, Point: []int{2, 2}, Frequency: 12},
		{Levels: []string{}, Point: []int{}},
		{Name: "<&>\u2028 \"q\" ×", Point: []int{-1, 0, 7}},
		{Frequency: -3},
		// Near the resolved form, which AppendJSON copies from the tables.
		{Name: "profit per year and country", Levels: []string{"year", "region"}, Point: []int{2, 2}, Frequency: 12},
		{Name: "profit per year and country", Levels: []string{"year", "country"}, Point: []int{2, 2}},
		{Levels: []string{"year", "country"}, Point: []int{2, 2}, Frequency: 12},
		{Name: "x", Levels: []string{"year", "country", "x"}, Point: []int{2, 2}, Frequency: 1},
		{Name: "x", Levels: []string{"year", "country"}, Point: []int{2, 2, 0}, Frequency: 1},
		{Name: "x", Levels: []string{"all", "all"}, Point: []int{4, 3}, Frequency: 1},
	} {
		want, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.AppendJSON([]byte("x"))
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("AppendJSON(%+v) = %s, %v; want x%s", q, got, err, want)
		}
	}
	// Every cuboid in resolved form, under its paper name, its default
	// name and names of its own.
	for _, n := range testLattice(t).Nodes() {
		w, err := FromJSON([]QueryJSON{{Point: n.Point}})
		if err != nil {
			t.Fatal(err)
		}
		q := w.JSON()[0]
		for _, name := range []string{q.Name, "profit per year and country", "profit per all and all", "<&>\u2028 \"q\"", "named"} {
			q.Name, q.Frequency = name, len(name)-3
			want, err := json.Marshal(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := q.AppendJSON([]byte("x")); err != nil || string(got) != "x"+string(want) {
				t.Errorf("AppendJSON(%+v) = %s, %v; want x%s", q, got, err, want)
			}
		}
	}
	for src, accept := range map[string]bool{
		`{}`: true,
		`{"name":"profit per year and country","levels":["year","country"],"point":[2,2],"frequency":12}`: true,
		` { "point" : [ 1 , 2 ] , "levels" : [ ] } `:                                                      true,
		`{"name":"year×country"}`: true,
		`{"Name":"x"}`:            false, // encoding/json folds case
		`{"name":"a","name":"b"}`: false,
		`{"name":null}`:           false,
		`{"name":"a\tb"}`:         false,
		`{"frequency":1.0}`:       false,
		`{"frequency":1e1}`:       false,
		`{"unknown":1}`:           false,
		`{"point":[1,2]`:          false,
		`[]`:                      false,
	} {
		var got QueryJSON
		d := jsondec.New(src)
		got.DecodeJSON(&d)
		d.End()
		if d.OK() != accept {
			t.Errorf("%s: accepted %v, want %v", src, d.OK(), accept)
		}
		if !d.OK() {
			continue
		}
		var want QueryJSON
		if err := json.Unmarshal([]byte(src), &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v (%v)", src, got, want, err)
		}
	}
}

func TestQueryJSONWire(t *testing.T) {
	b, err := json.Marshal(QueryJSON{Levels: []string{"year", "country"}, Frequency: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"levels":["year","country"],"frequency":3}`
	if string(b) != want {
		t.Errorf("marshal = %s, want %s", b, want)
	}
}
