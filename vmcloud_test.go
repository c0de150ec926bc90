package vmcloud

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestQuickstart exercises the documented facade path end to end.
func TestQuickstart(t *testing.T) {
	l, err := NewLattice(SalesSchema(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := SalesWorkload(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	adv, err := NewAdvisor(AdvisorConfig{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.AdviseBudget(Dollars(50))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Selection.Feasible {
		t.Fatalf("generous budget infeasible: %s", rec.Render())
	}
	if rec.TimeImprovement() <= 0 {
		t.Errorf("no improvement: %s", rec.Render())
	}
	if !strings.Contains(rec.Render(), "materialize:") {
		t.Error("render missing recommendation")
	}
}

func TestFacadeHelpers(t *testing.T) {
	if Dollars(1.08).String() != "$1.08" {
		t.Errorf("Dollars = %v", Dollars(1.08))
	}
	m, err := ParseMoney("$2.40")
	if err != nil || m != Dollars(2.4) {
		t.Errorf("ParseMoney = %v, %v", m, err)
	}
	if AWS2012().Name != "aws-2012" {
		t.Error("AWS2012 wiring wrong")
	}
	if len(Providers()) < 3 {
		t.Error("built-in catalog too small")
	}
	if TB/GB != 1024 || GB/MB != 1024 {
		t.Error("size constants wrong")
	}
}

func TestFacadeDeadlineAndPareto(t *testing.T) {
	l, err := NewLattice(SalesSchema(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := SalesWorkload(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	adv, err := NewAdvisor(AdvisorConfig{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.AdviseDeadline(4 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selection.Feasible && rec.Selection.Time > 4*time.Hour {
		t.Error("deadline violated")
	}
	front, err := adv.ParetoFront(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Error("empty Pareto front")
	}
}

// ExampleNewAdvisor is the package quick start: build the paper's sales
// lattice and workload, wire an advisor with the experimental defaults,
// and solve scenario MV1 under a $50 monthly budget.
func ExampleNewAdvisor() {
	l, _ := NewLattice(SalesSchema(), 200_000_000)
	w, _ := SalesWorkload(l, 10)
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	adv, _ := NewAdvisor(AdvisorConfig{Workload: w})
	rec, _ := adv.AdviseBudget(Dollars(50))
	fmt.Println(rec.Scenario)
	fmt.Println("feasible:", rec.Selection.Feasible)
	fmt.Println("views:", len(rec.ViewNames))
	// Output:
	// MV1 (budget limit)
	// feasible: true
	// views: 8
}

// ExampleDollars shows the exact micro-dollar currency arithmetic used
// throughout the cost models.
func ExampleDollars() {
	fmt.Println(Dollars(1.08))
	fmt.Println(Dollars(0.5).Add(Dollars(0.7)))
	// Output:
	// $1.08
	// $1.20
}

// ExampleParseMoney parses tariff-style price strings.
func ExampleParseMoney() {
	m, _ := ParseMoney("$0.12")
	fmt.Println(m.MulFloat(24 * 5)) // five instances for a day
	// Output:
	// $14.40
}

// ExampleCompare fans one advisory problem out across the whole built-in
// provider catalog and reports which cloud wins each scenario.
func ExampleCompare() {
	l, _ := NewLattice(SalesSchema(), 10_000_000)
	w, _ := SalesWorkload(l, 5)
	comp, _ := Compare(CompareRequest{
		Config: AdvisorConfig{Workload: w, FactRows: 10_000_000},
		Budget: Dollars(25),
		Limit:  4 * time.Hour,
	})
	fmt.Println("configurations:", len(comp.Configs))
	for _, win := range comp.Winners {
		fmt.Printf("%s winner: %s\n", win.Scenario, win.Provider)
	}
	// Output:
	// configurations: 5
	// mv1 winner: nimbus
	// mv2 winner: nimbus
	// mv3 winner: nimbus
}

func ExampleSweep() {
	l, _ := NewLattice(SalesSchema(), 10_000_000)
	w, _ := SalesWorkload(l, 5)
	sw, _ := Sweep(SweepRequest{
		Config:     AdvisorConfig{Workload: w, FactRows: 10_000_000},
		Budget:     Dollars(25),
		FleetSizes: []int{3, 5},
	})
	fmt.Println("scenario:", sw.Scenario)
	fmt.Println("cells:", len(sw.Cells))
	fmt.Println("best:", sw.Best.Provider)
	// Output:
	// scenario: mv1
	// cells: 10
	// best: nimbus
}
