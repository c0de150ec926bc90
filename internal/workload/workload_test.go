package workload

import (
	"testing"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
)

func salesLattice(t *testing.T) *lattice.Lattice {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSalesWorkloadSizes(t *testing.T) {
	l := salesLattice(t)
	for _, n := range []int{1, 3, 5, 10} {
		w, err := Sales(l, n)
		if err != nil {
			t.Fatalf("Sales(%d): %v", n, err)
		}
		if len(w.Queries) != n {
			t.Errorf("Sales(%d) has %d queries", n, len(w.Queries))
		}
		if err := w.Validate(l); err != nil {
			t.Errorf("Sales(%d) invalid: %v", n, err)
		}
	}
	if _, err := Sales(l, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := Sales(l, 11); err == nil {
		t.Error("size 11 accepted")
	}
}

func TestSalesWorkloadPrefixes(t *testing.T) {
	l := salesLattice(t)
	w3, _ := Sales(l, 3)
	w10, _ := Sales(l, 10)
	for i, q := range w3.Queries {
		if q.Name != w10.Queries[i].Name || !q.Point.Equal(w10.Queries[i].Point) {
			t.Errorf("query %d differs between 3- and 10-query workloads", i)
		}
	}
	// Q1 is the paper's running-example query.
	if w10.Queries[0].Name != "profit per year and country" {
		t.Errorf("Q1 = %q", w10.Queries[0].Name)
	}
	// The last two are the base-grain query and the grand total.
	base := w10.Queries[8].Point
	if base[0] != 0 || base[1] != 0 {
		t.Errorf("Q9 point = %v, want base", base)
	}
	apex := w10.Queries[9].Point
	if !apex.Equal(l.NodeByID(l.NumNodes() - 1).Point) {
		t.Errorf("Q10 point = %v, want apex", apex)
	}
}

func TestValidate(t *testing.T) {
	l := salesLattice(t)
	if err := (Workload{}).Validate(l); err == nil {
		t.Error("empty workload accepted")
	}
	w, _ := Sales(l, 3)
	w.Queries[0].Frequency = 0
	if err := w.Validate(l); err == nil {
		t.Error("zero frequency accepted")
	}
	w, _ = Sales(l, 3)
	w.Queries[0].Point = lattice.Point{99, 0}
	if err := w.Validate(l); err == nil {
		t.Error("bad point accepted")
	}
}

func TestResultBytes(t *testing.T) {
	l := salesLattice(t)
	w, _ := Sales(l, 1) // year×country
	got, err := w.ResultBytes(l)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := l.Node(w.Queries[0].Point)
	if got != node.Size {
		t.Errorf("ResultBytes = %v, want %v", got, node.Size)
	}
	w.Queries[0].Frequency = 3
	got, _ = w.ResultBytes(l)
	if got != node.Size.MulInt(3) {
		t.Errorf("ResultBytes with freq 3 = %v", got)
	}
	bad := Workload{Queries: []Query{{Point: lattice.Point{99, 0}, Frequency: 1}}}
	if _, err := bad.ResultBytes(l); err == nil {
		t.Error("bad point accepted")
	}
}

func TestScanTime(t *testing.T) {
	l := salesLattice(t)
	w, _ := Sales(l, 3)
	perGB := func(s units.DataSize) time.Duration {
		return time.Duration(s.GBs() * float64(time.Hour))
	}
	noViews := w.ScanTime(l, nil, perGB)
	if noViews <= 0 {
		t.Fatal("no-view scan time should be positive")
	}
	// Materializing month×country (answers Q1 and Q2) must cut time.
	mc, _ := l.PointOf("month", "country")
	withView := w.ScanTime(l, []lattice.Point{mc}, perGB)
	if withView >= noViews {
		t.Errorf("view did not reduce scan time: %v vs %v", withView, noViews)
	}
	// Frequencies multiply.
	w.Queries[0].Frequency = 10
	if w.ScanTime(l, nil, perGB) <= noViews {
		t.Error("higher frequency should increase scan time")
	}
}
