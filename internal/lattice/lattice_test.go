package lattice

import (
	"reflect"
	"testing"
	"testing/quick"

	"vmcloud/internal/schema"
)

func mustLattice(t *testing.T, rows int64) *Lattice {
	t.Helper()
	l, err := New(schema.Sales(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewSales(t *testing.T) {
	l := mustLattice(t, 1_000_000)
	if l.NumNodes() != 16 {
		t.Fatalf("NumNodes = %d, want 16", l.NumNodes())
	}
	base, err := l.Node(l.Base())
	if err != nil {
		t.Fatal(err)
	}
	if base.Rows > 1_000_000 {
		t.Errorf("base rows %d exceed fact rows", base.Rows)
	}
	apex, err := l.Node(l.Apex())
	if err != nil {
		t.Fatal(err)
	}
	if apex.Rows != 1 {
		t.Errorf("apex rows = %d, want 1", apex.Rows)
	}
}

func TestNewRejects(t *testing.T) {
	if _, err := New(schema.Sales(), 0); err == nil {
		t.Error("zero rows accepted")
	}
	bad := schema.Sales()
	bad.Measures = nil
	if _, err := New(bad, 100); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestPointOfAndName(t *testing.T) {
	l := mustLattice(t, 1000)
	p, err := l.PointOf("year", "country")
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 2 || p[1] != 2 {
		t.Errorf("PointOf(year,country) = %v", p)
	}
	if got := l.Name(p); got != "year×country" {
		t.Errorf("Name = %q", got)
	}
	if _, err := l.PointOf("year"); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := l.PointOf("decade", "country"); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestFinerOrEqual(t *testing.T) {
	l := mustLattice(t, 1000)
	dayDept := l.Base()
	yearCountry, _ := l.PointOf("year", "country")
	monthCountry, _ := l.PointOf("month", "country")
	yearRegion, _ := l.PointOf("year", "region")

	if !dayDept.FinerOrEqual(yearCountry) {
		t.Error("base should answer everything")
	}
	if !monthCountry.FinerOrEqual(yearCountry) {
		t.Error("month×country should answer year×country")
	}
	if monthCountry.FinerOrEqual(yearRegion) {
		t.Error("month×country cannot answer year×region (region finer than country)")
	}
	if !yearCountry.FinerOrEqual(yearCountry) {
		t.Error("reflexivity violated")
	}
	if (Point{0}).FinerOrEqual(Point{0, 0}) {
		t.Error("dimension mismatch should be false")
	}
}

func TestCanAnswerMatchesFinerOrEqual(t *testing.T) {
	l := mustLattice(t, 1000)
	for _, a := range l.Nodes() {
		for _, b := range l.Nodes() {
			if l.CanAnswer(a.Point, b.Point) != a.Point.FinerOrEqual(b.Point) {
				t.Fatalf("CanAnswer(%v,%v) inconsistent", a.Point, b.Point)
			}
		}
	}
}

// Partial-order axioms over the whole 16-node lattice.
func TestPartialOrderAxioms(t *testing.T) {
	l := mustLattice(t, 1000)
	nodes := l.Nodes()
	for _, a := range nodes {
		if !a.Point.FinerOrEqual(a.Point) {
			t.Fatalf("not reflexive at %v", a.Point)
		}
		for _, b := range nodes {
			if a.Point.FinerOrEqual(b.Point) && b.Point.FinerOrEqual(a.Point) && !a.Point.Equal(b.Point) {
				t.Fatalf("not antisymmetric at %v,%v", a.Point, b.Point)
			}
			for _, c := range nodes {
				if a.Point.FinerOrEqual(b.Point) && b.Point.FinerOrEqual(c.Point) && !a.Point.FinerOrEqual(c.Point) {
					t.Fatalf("not transitive at %v,%v,%v", a.Point, b.Point, c.Point)
				}
			}
		}
	}
}

func TestRowMonotonicity(t *testing.T) {
	// A finer cuboid never has fewer rows than a coarser one it answers.
	l := mustLattice(t, 5_000_000)
	for _, a := range l.Nodes() {
		for _, b := range l.Nodes() {
			if a.Point.FinerOrEqual(b.Point) && a.Rows < b.Rows {
				t.Errorf("finer %v has %d rows < coarser %v with %d",
					l.Name(a.Point), a.Rows, l.Name(b.Point), b.Rows)
			}
		}
	}
}

func TestAncestorsDescendants(t *testing.T) {
	l := mustLattice(t, 1000)
	yearCountry, _ := l.PointOf("year", "country")
	anc := l.Ancestors(yearCountry)
	// Finer-or-equal points: time ∈ {day,month,year} × geo ∈ {dept,region,country}
	// = 9, minus the point itself = 8.
	if len(anc) != 8 {
		t.Errorf("ancestors = %d, want 8", len(anc))
	}
	desc := l.Descendants(yearCountry)
	// Coarser: time ∈ {year,all} × geo ∈ {country,all} = 4, minus itself = 3.
	if len(desc) != 3 {
		t.Errorf("descendants = %d, want 3", len(desc))
	}
	if len(l.Ancestors(l.Base())) != 0 {
		t.Error("base has ancestors")
	}
	if len(l.Descendants(l.Apex())) != 0 {
		t.Error("apex has descendants")
	}
}

func TestParentsChildren(t *testing.T) {
	l := mustLattice(t, 1000)
	if got := len(l.Children(l.Base())); got != 2 {
		t.Errorf("base children = %d, want 2", got)
	}
	if got := len(l.Parents(l.Base())); got != 0 {
		t.Errorf("base parents = %d, want 0", got)
	}
	if got := len(l.Parents(l.Apex())); got != 2 {
		t.Errorf("apex parents = %d, want 2", got)
	}
	if got := len(l.Children(l.Apex())); got != 0 {
		t.Errorf("apex children = %d, want 0", got)
	}
}

func TestCheapestAnswering(t *testing.T) {
	l := mustLattice(t, 10_000_000)
	yearCountry, _ := l.PointOf("year", "country")
	monthCountry, _ := l.PointOf("month", "country")
	dayRegion, _ := l.PointOf("day", "region")

	// No materialized views: falls back to base.
	p, n := l.CheapestAnswering(nil, yearCountry)
	if !p.Equal(l.Base()) {
		t.Errorf("fallback = %v, want base", p)
	}
	if n.Rows <= 0 {
		t.Error("node rows not populated")
	}

	// month×country answers year×country and is far smaller than base.
	p, n = l.CheapestAnswering([]Point{monthCountry, dayRegion}, yearCountry)
	if !p.Equal(monthCountry) {
		t.Errorf("cheapest = %v, want month×country", l.Name(p))
	}
	mc, _ := l.Node(monthCountry)
	if n.Rows != mc.Rows {
		t.Errorf("rows = %d, want %d", n.Rows, mc.Rows)
	}

	// A view that cannot answer is ignored: year×department is coarser than
	// month on the time dimension, so it cannot answer month×country.
	yearDept, _ := l.PointOf("year", "department")
	p, _ = l.CheapestAnswering([]Point{yearDept}, monthCountry)
	if !p.Equal(l.Base()) {
		t.Errorf("non-answering view used: %v", l.Name(p))
	}

	// A materialized point that is not a cuboid of the lattice is skipped,
	// whatever the query is.
	p, n = l.CheapestAnswering([]Point{{4, 0}}, Point{5, 5})
	if !p.Equal(l.Base()) || n.Rows != l.FactRows {
		t.Errorf("out-of-range view used: %v with %d rows", p, n.Rows)
	}
}

func TestCardenas(t *testing.T) {
	cases := []struct {
		d, n, want int64
	}{
		{10, 0, 0},
		{0, 10, 0},
		{100, 10, 10}, // d ≥ n → n
		{1, 1000, 1},  // single key
	}
	for _, c := range cases {
		if got := cardenas(c.d, c.n); got != c.want {
			t.Errorf("cardenas(%d,%d) = %d, want %d", c.d, c.n, got, c.want)
		}
	}
	// Saturation: many rows over few keys approaches d.
	if got := cardenas(132, 1_000_000); got != 132 {
		t.Errorf("cardenas(132, 1e6) = %d, want 132", got)
	}
	// Sparse: stays within (0, min(d,n)] and below d.
	got := cardenas(1_000_000, 1000)
	if got <= 0 || got > 1000 {
		t.Errorf("cardenas(1e6, 1e3) = %d out of range", got)
	}
}

// Property: Cardenas estimate is monotone in n and bounded by min(d, n).
func TestCardenasProperties(t *testing.T) {
	f := func(d16, n16 uint16) bool {
		d, n := int64(d16)+1, int64(n16)+1
		r := cardenas(d, n)
		if r < 1 || r > d || r > n {
			return false
		}
		return cardenas(d, n+100) >= r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeErrors(t *testing.T) {
	l := mustLattice(t, 1000)
	if _, err := l.Node(Point{0}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := l.Node(Point{99, 0}); err == nil {
		t.Error("out-of-range level accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := mustLattice(t, 1000)
	pt := make(Point, 2)
	for id := 0; id < l.NumNodes(); id++ {
		l.decode(id, pt)
		if got := l.encode(pt); got != id {
			t.Fatalf("encode(decode(%d)) = %d", id, got)
		}
	}
}

func TestSizeScalesWithRows(t *testing.T) {
	l := mustLattice(t, 1000)
	for _, n := range l.Nodes() {
		if n.Size != l.Schema.RowBytes.MulInt(n.Rows) {
			t.Errorf("node %v size %v != rows %d × rowbytes", l.Name(n.Point), n.Size, n.Rows)
		}
	}
}

// TestWithFactRowsMatchesNew: a resized lattice is New's at that row
// count — every node's statistics and every answerability answer —
// whether it is new or written over an earlier one, and leaves the
// lattice it came from as it was.
func TestWithFactRowsMatchesNew(t *testing.T) {
	proto := mustLattice(t, 1)
	before := append([]Node(nil), proto.Nodes()...)
	var into Lattice
	for _, rows := range []int64{1, 9_999, 200_000_000, 100_000_000_000} {
		got, err := proto.WithFactRows(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		want := mustLattice(t, rows)
		if got.FactRows != rows || !reflect.DeepEqual(got.Nodes(), want.Nodes()) {
			t.Fatalf("rows %d: nodes differ from New's\n got %+v\nwant %+v", rows, got.Nodes(), want.Nodes())
		}
		reused, err := proto.WithFactRows(&into, rows)
		if err != nil || reused != &into {
			t.Fatalf("rows %d: written over a lattice: %p, %v; want %p", rows, reused, err, &into)
		}
		if !reflect.DeepEqual(reused.Nodes(), want.Nodes()) {
			t.Fatalf("rows %d: nodes written over an earlier lattice differ from New's", rows)
		}
		if allocs := testing.AllocsPerRun(10, func() { proto.WithFactRows(&into, rows) }); allocs != 0 {
			t.Errorf("rows %d: written over a lattice of the same schema, WithFactRows allocates %v times", rows, allocs)
		}
		for v := 0; v < got.NumNodes(); v++ {
			for q := 0; q < got.NumNodes(); q++ {
				if got.CanAnswerID(v, q) != want.CanAnswerID(v, q) {
					t.Fatalf("rows %d: CanAnswerID(%d,%d) differs from New's", rows, v, q)
				}
			}
		}
	}
	if !reflect.DeepEqual(proto.Nodes(), before) {
		t.Error("WithFactRows changed the lattice it was called on")
	}
	if _, err := proto.WithFactRows(nil, 0); err == nil {
		t.Error("zero fact rows accepted")
	}
}
