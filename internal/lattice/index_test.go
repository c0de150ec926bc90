package lattice

import (
	"testing"

	"vmcloud/internal/schema"
)

// TestIndexMatchesPartialOrder cross-checks every pair of nodes: the
// precomputed bitset index must agree exactly with the FinerOrEqual
// partial order it replaces.
func TestIndexMatchesPartialOrder(t *testing.T) {
	for _, build := range []func() (*Lattice, error){
		func() (*Lattice, error) { return New(schema.Sales(), 10_000_000) },
		func() (*Lattice, error) {
			s, err := schema.Synthetic(3, 4)
			if err != nil {
				return nil, err
			}
			return New(s, 50_000_000)
		},
		func() (*Lattice, error) {
			// Unequal radices (3 × 2 × 5): strides differ per dimension.
			lv := func(name string, card int) schema.Level { return schema.Level{Name: name, Cardinality: card} }
			return New(&schema.Schema{
				Name: "ragged",
				Dimensions: []schema.Dimension{
					schema.NewDimension("a", lv("a0", 90), lv("a1", 9)),
					schema.NewDimension("b", lv("b0", 40)),
					schema.NewDimension("c", lv("c0", 4000), lv("c1", 400), lv("c2", 40), lv("c3", 4)),
				},
				Measures: []schema.Measure{{Name: "value", Kind: schema.Sum}},
				RowBytes: 40,
			}, 5_000_000)
		},
	} {
		l, err := build()
		if err != nil {
			t.Fatal(err)
		}
		n := l.NumNodes()
		for i := 0; i < n; i++ {
			pi := l.nodes[i].Point
			for j := 0; j < n; j++ {
				pj := l.nodes[j].Point
				want := pi.FinerOrEqual(pj)
				if got := l.CanAnswerID(i, j); got != want {
					t.Fatalf("%s: CanAnswerID(%v→%v) = %v, partial order says %v", l.Schema.Name, pi, pj, got, want)
				}
				strict := want && i != j
				if l.desc[i].has(j) != strict || l.anc[j].has(i) != strict {
					t.Fatalf("%s: %v→%v strictly finer = %v, but desc says %v and anc says %v",
						l.Schema.Name, pi, pj, strict, l.desc[i].has(j), l.anc[j].has(i))
				}
			}
		}
	}
}

// TestBuildIndexAllocs pins the index at two allocations — one slab of
// words, one of bitset headers — however many cuboids it covers.
func TestBuildIndexAllocs(t *testing.T) {
	for _, dims := range []int{2, 4} {
		s, err := schema.Synthetic(dims, 4)
		if err != nil {
			t.Fatal(err)
		}
		l, err := New(s, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, l.buildIndex); got != 2 {
			t.Errorf("%d cuboids: buildIndex allocates %v times, want 2", l.NumNodes(), got)
		}
	}
}

// TestOverCapLatticeSkipsIndex: lattices beyond MaxIndexNodes must not
// pay the O(N²)-bit index, and every id-based query must keep answering
// correctly through the partial-order fallback.
func TestOverCapLatticeSkipsIndex(t *testing.T) {
	s, err := schema.Synthetic(14, 2) // 2^14 = 16384 nodes > MaxIndexNodes
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(s, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() <= MaxIndexNodes {
		t.Fatalf("fixture too small: %d nodes", l.NumNodes())
	}
	if l.desc != nil || l.anc != nil {
		t.Fatal("over-cap lattice built the bitset index")
	}
	// Spot-check id answerability and enumeration against the partial
	// order on a deterministic sample.
	ids := []int{0, 1, 77, 4097, l.NumNodes() - 2, l.NumNodes() - 1}
	for _, i := range ids {
		for _, j := range ids {
			want := l.nodes[i].Point.FinerOrEqual(l.nodes[j].Point)
			if got := l.CanAnswerID(i, j); got != want {
				t.Fatalf("CanAnswerID(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	apex := l.NumNodes() - 1
	if got := len(l.AncestorIDs(apex, nil)); got != l.NumNodes()-1 {
		t.Errorf("apex ancestors = %d, want %d", got, l.NumNodes()-1)
	}
	if got := len(l.DescendantIDs(0, nil)); got != l.NumNodes()-1 {
		t.Errorf("base descendants = %d, want %d", got, l.NumNodes()-1)
	}
	if got := len(l.Ancestors(l.Apex())); got != l.NumNodes()-1 {
		t.Errorf("Ancestors(apex) = %d nodes, want %d", got, l.NumNodes()-1)
	}
}

// TestIDRoundTrip: ID must agree with Nodes() order and reject invalid
// points.
func TestIDRoundTrip(t *testing.T) {
	l, err := New(schema.Sales(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range l.Nodes() {
		got, err := l.ID(n.Point)
		if err != nil {
			t.Fatal(err)
		}
		if got != id {
			t.Fatalf("ID(%v) = %d, want %d", n.Point, got, id)
		}
		if !l.NodeByID(id).Point.Equal(n.Point) {
			t.Fatalf("NodeByID(%d) = %v, want %v", id, l.NodeByID(id).Point, n.Point)
		}
	}
	if _, err := l.ID(Point{0}); err == nil {
		t.Error("short point accepted")
	}
	if _, err := l.ID(Point{0, 99}); err == nil {
		t.Error("out-of-range level accepted")
	}
}

// TestAncestorDescendantIDs checks the id enumeration against the
// node-returning API, including order (ascending id, base first).
func TestAncestorDescendantIDs(t *testing.T) {
	l, err := New(schema.Sales(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range l.Nodes() {
		anc := l.AncestorIDs(id, nil)
		wantAnc := l.Ancestors(n.Point)
		if len(anc) != len(wantAnc) {
			t.Fatalf("AncestorIDs(%v): %d ids vs %d nodes", n.Point, len(anc), len(wantAnc))
		}
		for k, aid := range anc {
			if !l.NodeByID(aid).Point.Equal(wantAnc[k].Point) {
				t.Fatalf("AncestorIDs(%v)[%d] = %v, want %v", n.Point, k, l.NodeByID(aid).Point, wantAnc[k].Point)
			}
		}
		desc := l.DescendantIDs(id, nil)
		wantDesc := l.Descendants(n.Point)
		if len(desc) != len(wantDesc) {
			t.Fatalf("DescendantIDs(%v): %d ids vs %d nodes", n.Point, len(desc), len(wantDesc))
		}
		for k, did := range desc {
			if !l.NodeByID(did).Point.Equal(wantDesc[k].Point) {
				t.Fatalf("DescendantIDs(%v)[%d] = %v, want %v", n.Point, k, l.NodeByID(did).Point, wantDesc[k].Point)
			}
		}
	}
}
