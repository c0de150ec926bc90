package compare

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/workload"
)

const testRows = 10_000_000 // keep lattice math fast

func testWorkload(t testing.TB, n int) workload.Workload {
	t.Helper()
	l, err := lattice.New(schema.Sales(), testRows)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(l, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30
	}
	return w
}

func testRequest(t testing.TB) Request {
	return Request{
		Config:    core.Config{Workload: testWorkload(t, 5), FactRows: testRows},
		Scenarios: []string{"mv1", "mv2", "mv3", "pareto"},
		Budget:    money.FromDollars(25),
		Limit:     4 * time.Hour,
		Steps:     5,
	}
}

func TestRunFullCatalog(t *testing.T) {
	comp, err := Run(testRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Default instance type "small" is offered by every built-in provider.
	if got, want := len(comp.Configs), len(pricing.ProviderNames()); got != want {
		t.Fatalf("configs = %d, want %d (one per catalog provider)", got, want)
	}
	for i := 1; i < len(comp.Configs); i++ {
		if comp.Configs[i-1].Key.compare(comp.Configs[i].Key) >= 0 {
			t.Errorf("configs not sorted: %v before %v", comp.Configs[i-1].Key, comp.Configs[i].Key)
		}
	}
	if got := len(comp.Winners); got != 3 {
		t.Fatalf("winners = %d, want 3 (mv1, mv2, mv3)", got)
	}
	for _, w := range comp.Winners {
		if w.Provider == "" {
			t.Errorf("scenario %s has no winner", w.Scenario)
		}
	}
	if len(comp.Pareto) == 0 {
		t.Error("global pareto frontier is empty")
	}
	if comp.BreakEven == nil {
		t.Fatal("break-even sweep missing despite mv1 budget")
	}
	if got := len(comp.BreakEven.Budgets); got != 8 {
		t.Errorf("break-even budgets = %d, want default 8", got)
	}
	if len(comp.BreakEven.Winners) != len(comp.BreakEven.Budgets) {
		t.Error("one winner per sweep budget expected")
	}
	if comp.Render() == "" {
		t.Error("empty render")
	}
}

// The comparison's per-scenario winners must agree with what independent
// single-provider advisors say: for every configuration the matrix entry
// equals a fresh core.New solve, and the winner is the best matrix entry
// under the scenario's ranking.
func TestWinnersAgreeWithIndependentAdvisors(t *testing.T) {
	req := testRequest(t)
	req.Scenarios = []string{"mv1", "mv2", "mv3"}
	req.BreakEvenSteps = -1
	comp, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	type metrics struct {
		time     time.Duration
		cost     money.Money
		feasible bool
	}
	independent := map[Key]map[string]metrics{}
	for _, name := range pricing.ProviderNames() {
		prov, err := pricing.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := core.New(core.Config{
			Provider:     &prov,
			InstanceType: "small",
			Instances:    5,
			FactRows:     testRows,
			Workload:     req.Workload,
		})
		if err != nil {
			t.Fatal(err)
		}
		k := Key{Provider: name, InstanceType: "small", Instances: 5}
		independent[k] = map[string]metrics{}
		for _, s := range req.Scenarios {
			var rec core.Recommendation
			switch s {
			case "mv1":
				rec, err = adv.AdviseBudget(req.Budget)
			case "mv2":
				rec, err = adv.AdviseDeadline(req.Limit)
			case "mv3":
				rec, err = adv.AdviseTradeoff(0.5)
			}
			if err != nil {
				t.Fatal(err)
			}
			independent[k][s] = metrics{rec.Selection.Time, rec.Selection.Bill.Total(), rec.Selection.Feasible}
		}
	}
	// Matrix entries match the independent solves exactly.
	for _, cfg := range comp.Configs {
		for _, r := range cfg.Results {
			want, ok := independent[cfg.Key][r.Scenario]
			if !ok {
				t.Fatalf("no independent solve for %v %s", cfg.Key, r.Scenario)
			}
			got := metrics{r.Rec.Selection.Time, r.Rec.Selection.Bill.Total(), r.Rec.Selection.Feasible}
			if got != want {
				t.Errorf("%v %s: compare %+v, independent advisor %+v", cfg.Key, r.Scenario, got, want)
			}
		}
	}
	// Winners are best under each scenario's ranking over the independent
	// solves.
	n, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range comp.Winners {
		for k, byScenario := range independent {
			m := byScenario[w.Scenario]
			other := Winner{Scenario: w.Scenario, Key: k, Time: m.time, Cost: m.cost, Feasible: m.feasible}
			if other.outranks(n.scenario(w.Scenario), w) {
				t.Errorf("scenario %s: winner %v beaten by %v", w.Scenario, w.Key, k)
			}
		}
	}
}

// The merged report must not depend on the order providers are listed.
func TestRunProviderOrderIndependence(t *testing.T) {
	base := testRequest(t)
	cat := pricing.Catalog()
	forward := []pricing.Provider{cat["aws-2012"], cat["cumulus"], cat["meridian"], cat["nimbus"], cat["stratus"]}
	reverse := []pricing.Provider{cat["stratus"], cat["nimbus"], cat["meridian"], cat["cumulus"], cat["aws-2012"]}
	shuffled := []pricing.Provider{cat["meridian"], cat["aws-2012"], cat["stratus"], cat["cumulus"], cat["nimbus"]}

	var got []ComparisonJSON
	for _, providers := range [][]pricing.Provider{forward, reverse, shuffled} {
		req := base
		req.Providers = providers
		comp, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, comp.JSON())
	}
	want, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		b, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(want) {
			t.Errorf("variant %d produced a different comparison", i)
		}
	}
}

func TestRunSkipsUnofferedInstanceTypes(t *testing.T) {
	req := testRequest(t)
	req.Scenarios = []string{"mv3"}
	req.InstanceTypes = []string{"micro"} // nimbus and meridian have no micro
	comp, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Skipped) != 2 {
		t.Errorf("skipped = %v, want nimbus and meridian micro configs", comp.Skipped)
	}
	if got, want := len(comp.Configs), len(pricing.ProviderNames())-2; got != want {
		t.Errorf("configs = %d, want %d", got, want)
	}
}

// Run must not mutate the caller's request: scenario canonicalization
// and list dedupe work on fresh slices.
func TestRunDoesNotMutateRequest(t *testing.T) {
	req := testRequest(t)
	req.Scenarios = []string{"mv3", "mv3", "mv1"}
	req.InstanceTypes = []string{"small", "small"}
	req.FleetSizes = []int{5, 5}
	req.BreakEvenSteps = -1
	comp, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := req.Scenarios; len(got) != 3 || got[0] != "mv3" || got[1] != "mv3" || got[2] != "mv1" {
		t.Errorf("caller's Scenarios mutated: %v", got)
	}
	if len(req.InstanceTypes) != 2 || len(req.FleetSizes) != 2 {
		t.Errorf("caller's lists mutated: %v %v", req.InstanceTypes, req.FleetSizes)
	}
	// Duplicate grid entries collapse instead of doubling the matrix.
	if got, want := len(comp.Configs), len(pricing.ProviderNames()); got != want {
		t.Errorf("configs = %d, want %d (duplicates collapsed)", got, want)
	}
	if got := comp.Scenarios; len(got) != 2 || got[0] != "mv1" || got[1] != "mv3" {
		t.Errorf("canonical scenarios = %v, want [mv1 mv3]", got)
	}
}

// TestRunLeavesCallerProviders: the cells read the caller's tariffs in
// place, and the grid's name order is a sort of a copy of the slice, so
// the caller's Providers keep their order and every tariff its contents.
func TestRunLeavesCallerProviders(t *testing.T) {
	req := testRequest(t)
	names := pricing.ProviderNames()
	var before []pricing.Provider
	for i := len(names) - 1; i >= 0; i-- {
		p, err := pricing.Lookup(names[i])
		if err != nil {
			t.Fatal(err)
		}
		req.Providers = append(req.Providers, p)
		before = append(before, p.Clone())
	}
	if _, err := Run(req); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(SweepRequest{Config: req.Config, Providers: req.Providers, Scenario: "mv1", Budget: req.Budget}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Providers, before) {
		t.Errorf("caller's Providers changed: got order %v", providerNames(req.Providers))
	}
}

func providerNames(ps []pricing.Provider) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestNaNAlphaRejected: a NaN α fails every range comparison, so the
// range check is written to fail it too — a NaN is refused like any
// other α outside [0,1], by a single comparison and by a sweep.
func TestNaNAlphaRejected(t *testing.T) {
	nan := math.NaN()
	if _, err := Run(Request{Config: core.Config{Workload: testWorkload(t, 3), FactRows: testRows}, Scenarios: []string{"mv3"}, Alpha: &nan}); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
		t.Errorf("Run: error %v, want alpha out of [0,1]", err)
	}
	req := sweepRequest(t)
	req.Scenario, req.Budget, req.Alpha = "mv3", 0, &nan
	if _, err := RunSweep(req); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
		t.Errorf("RunSweep: error %v, want alpha out of [0,1]", err)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := core.Config{Workload: testWorkload(t, 3), FactRows: testRows}
	badAlpha := 1.5
	cases := map[string]Request{
		"mv1 without budget":  {Config: cfg, Scenarios: []string{"mv1"}},
		"mv2 without limit":   {Config: cfg, Scenarios: []string{"mv2"}},
		"unknown scenario":    {Config: cfg, Scenarios: []string{"warp"}},
		"bad alpha":           {Config: cfg, Scenarios: []string{"mv3"}, Alpha: &badAlpha},
		"bad fleet":           {Config: cfg, Scenarios: []string{"mv3"}, FleetSizes: []int{0}},
		"no runnable configs": {Config: cfg, Scenarios: []string{"mv3"}, InstanceTypes: []string{"mega"}},
	}
	// The embedded config's tariff fields are the grid lists' job, and a
	// grid prices the sales schema only.
	aws := pricing.AWS2012()
	for field, set := range map[string]func(*core.Config){
		"Provider":     func(c *core.Config) { c.Provider = &aws },
		"InstanceType": func(c *core.Config) { c.InstanceType = "small" },
		"Instances":    func(c *core.Config) { c.Instances = 5 },
		"Schema":       func(c *core.Config) { c.Schema = schema.Sales() },
	} {
		req := Request{Config: cfg, Scenarios: []string{"mv3"}}
		set(&req.Config)
		cases["Config."+field] = req
	}
	for name, req := range cases {
		if _, err := Run(req); err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.HasPrefix(name, "Config.") && !strings.Contains(err.Error(), name) {
			t.Errorf("%s: rejected with %q, which does not name the field", name, err)
		}
	}
}

// Break-even sweep: winners are recorded per budget, and flips only occur
// between distinct winners. With a generous budget range the largest
// budget's winner must match the mv1 matrix winner at the same budget
// when that budget equals the request budget.
func TestBreakEvenSweep(t *testing.T) {
	req := testRequest(t)
	req.Scenarios = []string{"mv1"}
	req.BreakEvenSteps = 5
	comp, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	be := comp.BreakEven
	if be == nil {
		t.Fatal("no break-even sweep")
	}
	if len(be.Budgets) != 5 || len(be.Winners) != 5 {
		t.Fatalf("sweep size = %d/%d, want 5/5", len(be.Budgets), len(be.Winners))
	}
	if be.Budgets[0] != req.Budget.DivInt(2) || be.Budgets[4] != req.Budget.MulInt(2) {
		t.Errorf("sweep range = [%v, %v], want [budget/2, 2·budget]", be.Budgets[0], be.Budgets[4])
	}
	for _, f := range be.Flips {
		if f.From == f.To {
			t.Errorf("flip with identical endpoints: %+v", f)
		}
	}
}

func TestRequestJSONNormalizeCanonical(t *testing.T) {
	// Two spellings of the same comparison normalize identically.
	a := RequestJSON{}
	b := RequestJSON{
		Providers:     append([]string(nil), pricing.ProviderNames()...),
		InstanceTypes: []string{"small", "small"},
		FleetSizes:    []int{5, 5},
	}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("normal forms differ:\n%s\n%s", ja, jb)
	}
	// The advise per-configuration fields are rejected.
	for name, rj := range map[string]RequestJSON{
		"provider":      {ConfigJSON: core.ConfigJSON{Provider: "aws-2012"}},
		"instance_type": {ConfigJSON: core.ConfigJSON{InstanceType: "small"}},
		"instances":     {ConfigJSON: core.ConfigJSON{Instances: 5}},
	} {
		if err := rj.Normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRequestJSONResolveRoundTrip(t *testing.T) {
	budget := money.FromDollars(25)
	rj := RequestJSON{Budget: &budget, Limit: "4h"}
	rj.ConfigJSON.FactRows = testRows
	rj.ConfigJSON.Queries = 5
	if err := rj.Normalize(); err != nil {
		t.Fatal(err)
	}
	req, err := rj.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Providers) != len(pricing.ProviderNames()) {
		t.Errorf("providers = %d, want full catalog", len(req.Providers))
	}
	if req.Limit != 4*time.Hour || req.Budget != budget {
		t.Errorf("params = %v/%v", req.Limit, req.Budget)
	}
	comp, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	cj := comp.JSON()
	if len(cj.Configs) != len(comp.Configs) || cj.Report == "" {
		t.Error("wire form incomplete")
	}
	if _, err := json.Marshal(cj); err != nil {
		t.Fatal(err)
	}

	// α = 0 is a cost-only caller, served as α = 0 and not as the 0.5
	// default: every cell is labelled α=0 and the winner is the cheapest.
	zero := 0.0
	rj = RequestJSON{Scenarios: []string{"mv3"}, Alpha: &zero}
	rj.ConfigJSON.FactRows = testRows
	rj.ConfigJSON.Queries = 5
	if err := rj.Normalize(); err != nil {
		t.Fatal(err)
	}
	if req, err = rj.Resolve(); err != nil {
		t.Fatal(err)
	}
	if comp, err = Run(req); err != nil {
		t.Fatal(err)
	}
	cheapest := comp.Winners[0].Cost
	for _, c := range comp.Configs {
		rec, _ := c.Result("mv3")
		if rec.Scenario != "MV3 (tradeoff, α=0)" {
			t.Errorf("%s: served %q for α = 0", c.Key, rec.Scenario)
		}
		cheapest = min(cheapest, rec.Selection.Bill.Total())
	}
	if w := comp.Winners[0]; w.Cost != cheapest {
		t.Errorf("α = 0 winner %s costs %v; the cheapest cell costs %v", w.Key, w.Cost, cheapest)
	}
}
