package costmodel

import (
	"strings"
	"testing"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/units"
)

func TestItemizeRunningExample(t *testing.T) {
	p := Plan{
		Cluster:           awsTwoSmalls(t),
		Months:            1,
		DatasetSize:       500 * units.GB,
		MonthlyProcessing: 50 * time.Hour,
		MonthlyEgress:     10 * units.GB,
	}
	p = p.WithViews(50*units.GB, 40*time.Hour, 5*time.Hour, 1*time.Hour)
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	inv := Itemize(p, b)
	if inv.GrandTotal != b.Total() {
		t.Errorf("grand total %v != bill total %v", inv.GrandTotal, b.Total())
	}
	// All five line items present (processing, maintenance,
	// materialization, storage, transfer).
	if len(inv.Items) != 5 {
		t.Fatalf("items = %d, want 5:\n%s", len(inv.Items), inv)
	}
	// Line items sum to the grand total.
	var sum money.Money
	for _, it := range inv.Items {
		sum = sum.Add(it.Amount)
	}
	if sum != inv.GrandTotal {
		t.Errorf("items sum %v != total %v", sum, inv.GrandTotal)
	}
	out := inv.String()
	for _, frag := range []string{"query processing", "view maintenance", "materialization", "data at rest", "egress", "TOTAL", "$9.60", "$1.20", "$0.24", "$77.00", "$1.08"} {
		if !strings.Contains(out, frag) {
			t.Errorf("invoice missing %q:\n%s", frag, out)
		}
	}
}

func TestItemizeOmitsZeroLines(t *testing.T) {
	p := Plan{
		Cluster:     awsTwoSmalls(t),
		Months:      1,
		DatasetSize: 100 * units.GB,
	}
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	inv := Itemize(p, b)
	if len(inv.Items) != 1 {
		t.Fatalf("items = %d, want only storage:\n%s", len(inv.Items), inv)
	}
	if inv.Items[0].Section != "Storage" {
		t.Errorf("remaining item = %+v", inv.Items[0])
	}
}

func TestItemizeNilCluster(t *testing.T) {
	// Itemize must not panic on a plan without a cluster (e.g. when called
	// on hand-built bills).
	inv := Itemize(Plan{MonthlyProcessing: time.Hour}, Bill{
		Compute: Breakdown{Processing: money.FromDollars(1)},
	})
	if len(inv.Items) != 1 || inv.GrandTotal != money.FromDollars(1) {
		t.Errorf("invoice = %+v", inv)
	}
}
