package compare

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/views"
)

func sweepRequest(t testing.TB) SweepRequest {
	return SweepRequest{
		Config:     core.Config{Workload: testWorkload(t, 10), FactRows: testRows},
		Scenario:   "mv1",
		Budget:     money.FromDollars(25),
		FleetSizes: []int{3, 5},
	}
}

func TestSweepFullCatalog(t *testing.T) {
	sw, err := RunSweep(sweepRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(pricing.ProviderNames()) * 2
	if len(sw.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(sw.Cells), wantCells)
	}
	if sw.Scenario != "mv1" {
		t.Errorf("scenario = %q", sw.Scenario)
	}
	var zero Key
	if sw.Best == zero {
		t.Error("no best configuration picked")
	}
	// Deterministically ordered by provider, instance, fleet.
	for i := 1; i < len(sw.Cells); i++ {
		if sw.Cells[i-1].Key.compare(sw.Cells[i].Key) >= 0 {
			t.Errorf("cells out of order at %d: %v !< %v", i, sw.Cells[i-1].Key, sw.Cells[i].Key)
		}
	}
	if out := sw.Render(); out == "" {
		t.Error("empty render")
	}
}

// TestSweepCellsMatchIndependentAdvisors pins the kernel re-pricing to
// the per-config ground truth: every sweep cell must equal a fresh
// advisor built from scratch for that tariff.
func TestSweepCellsMatchIndependentAdvisors(t *testing.T) {
	req := sweepRequest(t)
	req.Providers = []pricing.Provider{mustLookup(t, "aws-2012"), mustLookup(t, "stratus")}
	sw, err := RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sw.Cells {
		prov := mustLookup(t, c.Provider)
		adv, err := core.New(core.Config{
			Provider:     &prov,
			InstanceType: c.InstanceType,
			Instances:    c.Instances,
			FactRows:     req.FactRows,
			Workload:     req.Workload,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := adv.AdviseBudget(req.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Rec, want) {
			t.Errorf("%s: sweep cell diverged from fresh advisor:\ngot  %+v\nwant %+v", c.Key, c.Rec, want)
		}
	}
}

func mustLookup(t testing.TB, name string) pricing.Provider {
	t.Helper()
	p, err := pricing.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The sweep must not depend on the order providers are listed.
func TestSweepProviderOrderIndependence(t *testing.T) {
	forward, reverse := sweepRequest(t), sweepRequest(t)
	names := pricing.ProviderNames()
	for i := range names {
		forward.Providers = append(forward.Providers, mustLookup(t, names[i]))
		reverse.Providers = append(reverse.Providers, mustLookup(t, names[len(names)-1-i]))
	}
	a, err := RunSweep(forward)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(reverse)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a.JSON())
	bj, _ := json.Marshal(b.JSON())
	if string(aj) != string(bj) {
		t.Error("sweep result depends on the order providers are listed")
	}
}

func TestSweepScenarioDerivation(t *testing.T) {
	req := sweepRequest(t)
	req.Scenario = ""
	sw, err := RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Scenario != "mv1" {
		t.Errorf("budget-only request derived %q, want mv1", sw.Scenario)
	}
	req = sweepRequest(t)
	req.Scenario = ""
	req.Budget = 0
	req.Limit = 4 * time.Hour
	sw, err = RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Scenario != "mv2" {
		t.Errorf("limit-only request derived %q, want mv2", sw.Scenario)
	}
	req = sweepRequest(t)
	req.Scenario = ""
	req.Budget = 0
	sw, err = RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Scenario != "mv3" {
		t.Errorf("bare request derived %q, want mv3", sw.Scenario)
	}
}

func TestSweepValidation(t *testing.T) {
	req := sweepRequest(t)
	req.Scenario = "pareto"
	if _, err := RunSweep(req); err == nil {
		t.Error("pareto accepted as a sweep scenario")
	}
	req = sweepRequest(t)
	req.Budget = 0
	req.Scenario = "mv1"
	if _, err := RunSweep(req); err == nil {
		t.Error("mv1 sweep without budget accepted")
	}
	req = sweepRequest(t)
	req.FleetSizes = []int{0}
	if _, err := RunSweep(req); err == nil {
		t.Error("zero fleet size accepted")
	}
	req = sweepRequest(t)
	req.Workload.Queries = nil
	if _, err := RunSweep(req); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestSweepDeferredPolicy exercises the grid under the second
// maintenance policy (the deferred path routes through the kernel's
// group-served accounting).
func TestSweepDeferredPolicy(t *testing.T) {
	req := sweepRequest(t)
	req.MaintenancePolicy = views.DeferredMaintenance
	sw, err := RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sw.Cells {
		prov := mustLookup(t, c.Provider)
		adv, err := core.New(core.Config{
			Provider:          &prov,
			InstanceType:      c.InstanceType,
			Instances:         c.Instances,
			FactRows:          req.FactRows,
			Workload:          req.Workload,
			MaintenancePolicy: views.DeferredMaintenance,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := adv.AdviseBudget(req.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Rec, want) {
			t.Errorf("%s: deferred sweep cell diverged from fresh advisor", c.Key)
		}
	}
}

func TestSweepRequestJSONNormalizeCanonical(t *testing.T) {
	a := SweepRequestJSON{}
	budget := money.FromDollars(25)
	a.Budget = &budget
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Scenario != "mv1" {
		t.Errorf("derived scenario %q", a.Scenario)
	}
	if len(a.Providers) != len(pricing.ProviderNames()) {
		t.Errorf("providers not defaulted: %v", a.Providers)
	}
	// Normalization is a fixed point.
	b := a
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("normalize not idempotent:\n%s\n%s", aj, bj)
	}
	// Irrelevant parameters are zeroed.
	alpha := 0.7
	c := SweepRequestJSON{Scenario: "mv1", Alpha: &alpha, Limit: "4h"}
	c.Budget = &budget
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Alpha != nil || c.Limit != "" {
		t.Errorf("irrelevant parameters survived: alpha=%v limit=%q", c.Alpha, c.Limit)
	}
	// Advise-style singular fields are rejected.
	d := SweepRequestJSON{}
	d.Budget = &budget
	d.ConfigJSON.Provider = "aws-2012"
	if err := d.Normalize(); err == nil {
		t.Error("singular provider field accepted")
	}
}

func TestSweepRequestJSONResolveRoundTrip(t *testing.T) {
	rj := SweepRequestJSON{Scenario: "mv2", Limit: "4h", FleetSizes: []int{3, 5}, Providers: []string{"aws-2012"}}
	if err := rj.Normalize(); err != nil {
		t.Fatal(err)
	}
	req, err := rj.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RunSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(sw.Cells))
	}
	if sw.Scenario != "mv2" {
		t.Errorf("scenario %q", sw.Scenario)
	}
	for _, c := range sw.Cells {
		if !c.Rec.Selection.Feasible {
			t.Errorf("%s infeasible at a 4h limit", c.Key)
		}
	}

	// α = 0 is served as α = 0, not as the 0.5 default: every cell is
	// labelled α=0 and the best cell is the cheapest.
	zero := 0.0
	rj = SweepRequestJSON{Scenario: "mv3", Alpha: &zero}
	rj.ConfigJSON.FactRows = testRows
	if err := rj.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req, err = rj.Resolve(); err != nil {
		t.Fatal(err)
	}
	if sw, err = RunSweep(req); err != nil {
		t.Fatal(err)
	}
	cheapest := sw.Cells[0]
	for _, c := range sw.Cells {
		if c.Rec.Scenario != "MV3 (tradeoff, α=0)" {
			t.Errorf("%s: served %q for α = 0", c.Key, c.Rec.Scenario)
		}
		if c.Rec.Selection.Bill.Total() < cheapest.Rec.Selection.Bill.Total() {
			cheapest = c
		}
	}
	if best := sw.Best; best != cheapest.Key {
		t.Errorf("α = 0 best cell %s; the cheapest is %s", best, cheapest.Key)
	}
}
