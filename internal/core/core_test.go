package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/workload"
)

func salesAdvisor(t *testing.T, nQueries int) *Advisor {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(l, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	adv, err := New(Config{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

func TestNewDefaults(t *testing.T) {
	adv := salesAdvisor(t, 5)
	if adv.Cl.NbInstances != 5 || adv.Cl.Instance.Name != "small" {
		t.Errorf("default fleet = %d×%s", adv.Cl.NbInstances, adv.Cl.Instance.Name)
	}
	if adv.Lat.FactRows != 200_000_000 {
		t.Errorf("fact rows = %d", adv.Lat.FactRows)
	}
	if len(adv.Candidates) == 0 {
		t.Error("no candidates generated")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty workload accepted")
	}
	l, _ := lattice.New(schema.Sales(), 1000)
	w, _ := workload.Sales(l, 3)
	if _, err := New(Config{Workload: w, InstanceType: "mega"}); err == nil {
		t.Error("unknown instance type accepted")
	}
	bad := schema.Sales()
	bad.Measures = nil
	if _, err := New(Config{Workload: w, Schema: bad}); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestAdviseBudget(t *testing.T) {
	adv := salesAdvisor(t, 10)
	_, baseBill, err := adv.Ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.AdviseBudget(baseBill.Total())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Selection.Feasible {
		t.Error("baseline budget should be feasible")
	}
	if rec.TimeImprovement() <= 0 {
		t.Errorf("no time improvement: %v", rec.TimeImprovement())
	}
	if rec.Selection.Bill.Total() > baseBill.Total() {
		t.Errorf("bill %v exceeds budget %v", rec.Selection.Bill.Total(), baseBill.Total())
	}
	out := rec.Render()
	for _, frag := range []string{"MV1", "without views", "with views", "materialize:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

func TestAdviseDeadline(t *testing.T) {
	adv := salesAdvisor(t, 10)
	baseT, _, _ := adv.Ev.Evaluate(nil)
	rec, err := adv.AdviseDeadline(baseT / 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Selection.Feasible {
		t.Fatalf("halving the workload time should be achievable, got %v", rec.Selection.Time)
	}
	if rec.Selection.Time > baseT/2 {
		t.Errorf("time %v over limit %v", rec.Selection.Time, baseT/2)
	}
	// In the recurring regime views also cut the bill.
	if rec.CostImprovement() <= 0 {
		t.Errorf("expected positive cost improvement, got %v", rec.CostImprovement())
	}
}

func TestAdviseDeadlineInfeasible(t *testing.T) {
	adv := salesAdvisor(t, 10)
	rec, err := adv.AdviseDeadline(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selection.Feasible {
		t.Error("millisecond deadline reported feasible")
	}
	if !strings.Contains(rec.Render(), "NOT SATISFIABLE") {
		t.Error("render should flag infeasibility")
	}
}

func TestAdviseTradeoff(t *testing.T) {
	adv := salesAdvisor(t, 10)
	rec, err := adv.AdviseTradeoff(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Selection.Points) == 0 {
		t.Error("tradeoff selected no views in the recurring regime")
	}
	if !strings.Contains(rec.Scenario, "α=0.5") {
		t.Errorf("scenario label = %q", rec.Scenario)
	}
	for _, alpha := range []float64{-0.1, math.NaN()} {
		if _, err := adv.AdviseTradeoff(alpha); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Errorf("alpha %g: error %v, want out of [0,1]", alpha, err)
		}
	}
}

func TestParetoFront(t *testing.T) {
	adv := salesAdvisor(t, 10)
	front, err := adv.ParetoFront(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	// No point dominates another.
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.Time <= p.Time && q.Cost <= p.Cost && (q.Time < p.Time || q.Cost < p.Cost) {
				t.Errorf("front point %d dominated by %d", i, j)
			}
		}
	}
	if _, err := adv.ParetoFront(1); err == nil {
		t.Error("single-step sweep accepted")
	}
}

func TestCustomProvider(t *testing.T) {
	l, _ := lattice.New(schema.Sales(), 1_000_000)
	w, _ := workload.Sales(l, 3)
	prov := pricing.StratusCloud()
	adv, err := New(Config{Workload: w, Provider: &prov, InstanceType: "large", Instances: 2, FactRows: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Cl.Provider.Name != "stratus" || adv.Cl.Instance.Name != "large" {
		t.Errorf("provider wiring wrong: %s", adv.Cl)
	}
	if _, err := adv.AdviseBudget(money.FromDollars(100)); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendationRates(t *testing.T) {
	r := Recommendation{}
	if r.TimeImprovement() != 0 || r.CostImprovement() != 0 {
		t.Error("zero baselines should yield zero rates")
	}
}

// TestAdvisorConcurrentSolves pins the advisor's concurrency contract:
// one advisor may be shared across goroutines (solves serialize on the
// internal mutex, guarding the kernel session's scratch state), and
// every concurrent solve must equal the sequential answer. Run under
// -race in CI.
func TestAdvisorConcurrentSolves(t *testing.T) {
	adv := salesAdvisor(t, 10)
	budget := money.FromDollars(25)
	want, err := adv.AdviseBudget(budget)
	if err != nil {
		t.Fatal(err)
	}
	wantMV2, err := adv.AdviseDeadline(4 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			rec, err := adv.AdviseBudget(budget)
			if err == nil && rec.Selection.Bill.Total() != want.Selection.Bill.Total() {
				err = fmt.Errorf("concurrent mv1 bill %v != sequential %v", rec.Selection.Bill.Total(), want.Selection.Bill.Total())
			}
			errs <- err
		}()
		go func() {
			rec, err := adv.AdviseDeadline(4 * time.Hour)
			if err == nil && rec.Selection.Time != wantMV2.Selection.Time {
				err = fmt.Errorf("concurrent mv2 time %v != sequential %v", rec.Selection.Time, wantMV2.Selection.Time)
			}
			errs <- err
		}()
	}
	for i := 0; i < 2*goroutines; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestDefaultSchemaMatchesExplicitSales: the default schema's lattice is
// resized from the shared sales tables and its cuboid names are theirs;
// spelling the schema out builds both from scratch. The two advisors
// must be the same advisor — lattice statistics, candidate pool and the
// rendered recommendation of every scenario.
func TestDefaultSchemaMatchesExplicitSales(t *testing.T) {
	for _, rows := range []int64{10_000, 200_000_000, 90_000_000_000} {
		w, err := workload.SalesPrefix(10)
		if err != nil {
			t.Fatal(err)
		}
		implicit, err := New(Config{Workload: w, FactRows: rows})
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := New(Config{Workload: w, FactRows: rows, Schema: schema.Sales()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(implicit.Lat.Nodes(), explicit.Lat.Nodes()) {
			t.Fatalf("rows %d: lattice nodes differ", rows)
		}
		if !reflect.DeepEqual(implicit.Candidates, explicit.Candidates) {
			t.Fatalf("rows %d: candidate pools differ", rows)
		}
		a, err := implicit.AdviseBudget(money.FromDollars(25))
		if err != nil {
			t.Fatal(err)
		}
		b, err := explicit.AdviseBudget(money.FromDollars(25))
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Fatalf("rows %d: recommendations differ\n%s\n%s", rows, a.Render(), b.Render())
		}
	}
}

// TestSharedAllocBudget gates the per-request structure build and the
// per-cell tariff binding in counts, on the paper's problem as the wire
// states it (default schema): NewShared is the lattice's node statistics,
// the candidate pool and the slab kernel; Advisor is the cluster, the
// estimator, the evaluator, the advisor and the session's six slabs.
// They cost 94 and 15 before the structure was built in slabs.
func TestSharedAllocBudget(t *testing.T) {
	w, err := workload.SalesPrefix(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: w}
	var sh *Shared
	if allocs := testing.AllocsPerRun(50, func() {
		if sh, err = NewShared(cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs > 16 { // 15
		t.Errorf("NewShared allocates %.0f times, budget 16", allocs)
	}
	prov, err := pricing.LookupShared(pricing.AWS2012Name)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := sh.Advisor(*prov, "small", 5); err != nil {
			t.Fatal(err)
		}
	}); allocs > 11 { // 10
		t.Errorf("Shared.Advisor allocates %.0f times, budget 11", allocs)
	}
}
