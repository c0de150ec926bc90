package lattice

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"vmcloud/internal/schema"
)

// TestIndexMatchesPartialOrder holds the id queries to a brute-force
// partial-order sweep on every node of three lattices, the last with
// unequal radices (3 × 2 × 5), so that AncestorIDs' odometer carries
// over unequal strides.
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
		ids := make([]int, l.NumNodes())
		for i := range ids {
			ids[i] = i
		}
		checkPartialOrder(t, l, ids)
	}
}

// TestLargeLatticeMatchesPartialOrder is the same check on a 16,384-node
// lattice, over a deterministic sample of its ids: AncestorIDs walks
// only the answering cuboids however large the lattice is.
func TestLargeLatticeMatchesPartialOrder(t *testing.T) {
	s, err := schema.Synthetic(14, 2)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(s, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumNodes() != 1<<14 {
		t.Fatalf("NumNodes = %d, want 2^14", l.NumNodes())
	}
	checkPartialOrder(t, l, []int{0, 1, 77, 4097, l.NumNodes() - 2, l.NumNodes() - 1})
	if got := len(l.Ancestors(l.Apex())); got != l.NumNodes()-1 {
		t.Errorf("Ancestors(apex) = %d nodes, want %d", got, l.NumNodes()-1)
	}
}

// checkPartialOrder fails t unless, for every id in ids, AncestorIDs
// lists exactly the strictly finer nodes in ascending order (appending
// to what out already holds), and CanAnswerID is FinerOrEqual on every
// pair of ids.
func checkPartialOrder(t *testing.T, l *Lattice, ids []int) {
	t.Helper()
	for _, i := range ids {
		pi := l.nodes[i].Point
		want := []int{-1}
		for j, n := range l.nodes {
			if j != i && n.Point.FinerOrEqual(pi) {
				want = append(want, j)
			}
		}
		if got := l.AncestorIDs(i, []int{-1}); !slices.Equal(got, want) {
			t.Fatalf("%s: AncestorIDs(%v) = %v, partial order says %v", l.Schema.Name, pi, got[1:], want[1:])
		}
		for _, j := range ids {
			pj := l.nodes[j].Point
			if got, want := l.CanAnswerID(i, j), pi.FinerOrEqual(pj); got != want {
				t.Fatalf("%s: CanAnswerID(%v→%v) = %v, partial order says %v", l.Schema.Name, pi, pj, got, want)
			}
		}
	}
}

// TestNewAllocBudget pins what one lattice build allocates, in count and
// in bytes: the nodes, their points and the per-dimension radices and
// strides, and nothing that grows faster than the node count.
func TestNewAllocBudget(t *testing.T) {
	for _, c := range []struct {
		dims   int
		allocs int
		bytes  uint64
	}{
		{4, 8, 26_400},
		{5, 10, 104_900},
	} {
		s, err := schema.Synthetic(c.dims, 4)
		if err != nil {
			t.Fatal(err)
		}
		build := func() {
			if _, err := New(s, 1_000_000_000); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		if got := testing.AllocsPerRun(runs, build); got > float64(c.allocs) {
			t.Errorf("Synthetic(%d, 4): New allocates %v times per build, budget %d", c.dims, got, c.allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			build()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > c.bytes {
			t.Errorf("Synthetic(%d, 4): New allocates %d B per build, budget %d", c.dims, got, c.bytes)
		}
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

// FuzzAncestorIDs builds a lattice of 1–6 dimensions with 2–5 levels
// each (ALL included) and picks one of its ids: AncestorIDs must list
// the brute-force sweep's strictly finer ids in ascending order, and
// CanAnswerID must be FinerOrEqual on every pair the picked id is in.
func FuzzAncestorIDs(f *testing.F) {
	f.Add(uint8(2), uint16(0b1010), uint32(7))
	f.Add(uint8(3), uint16(0b10_00_11), uint32(29))
	f.Add(uint8(6), uint16(0xfff), uint32(15624))
	f.Add(uint8(1), uint16(0), uint32(1))
	f.Fuzz(func(t *testing.T, dims uint8, levelBits uint16, pick uint32) {
		s := &schema.Schema{
			Name:     "fuzz",
			Measures: []schema.Measure{{Name: "value", Kind: schema.Sum}},
			RowBytes: 40,
		}
		for d := range 1 + int(dims)%6 {
			levels := 2 + int(levelBits>>(2*d))&3
			named := make([]schema.Level, levels-1)
			for k := range named {
				named[k] = schema.Level{Name: fmt.Sprintf("d%dl%d", d, k), Cardinality: 1 << (3 * (levels - 1 - k))}
			}
			s.Dimensions = append(s.Dimensions, schema.NewDimension(fmt.Sprintf("d%d", d), named...))
		}
		l, err := New(s, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		id := int(pick % uint32(l.NumNodes()))
		checkPartialOrder(t, l, []int{id})
		p := l.nodes[id].Point
		for j, n := range l.nodes {
			if l.CanAnswerID(id, j) != p.FinerOrEqual(n.Point) || l.CanAnswerID(j, id) != n.Point.FinerOrEqual(p) {
				t.Fatalf("CanAnswerID disagrees with FinerOrEqual between %v and %v", p, n.Point)
			}
		}
	})
}
