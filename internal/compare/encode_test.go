package compare

import (
	"math/rand"
	"testing"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
	"vmcloud/internal/wiretest"
)

// checkComparison holds a comparison's routes to the wire together: the
// eager wire form through the hand-written encoder and through
// json.Marshal, encoding/json's reflection over the same fields, and
// the served route, which leaves every report to the encoder.
func checkComparison(t *testing.T, what string, c *Comparison) {
	t.Helper()
	eager := c.JSON()
	wiretest.Check(t, what, eager)
	want, _ := eager.AppendJSON(nil)
	if got, err := c.AppendJSON(nil); err != nil || string(got) != string(want) {
		t.Fatalf("%s: served encoding differs from json.Marshal(c.JSON()) (err %v):\ngot:  %s\nwant: %s", what, err, got, want)
	}
	if eager.Report != c.Render() || eager.Report != string(c.AppendReport(nil)) {
		t.Fatalf("%s: Render, AppendReport and the wire report disagree", what)
	}
}

func checkSweep(t *testing.T, what string, s *Sweep) {
	t.Helper()
	eager := s.JSON()
	wiretest.Check(t, what, eager)
	want, _ := eager.AppendJSON(nil)
	if got, err := s.AppendJSON(nil); err != nil || string(got) != string(want) {
		t.Fatalf("%s: served encoding differs from json.Marshal(s.JSON()) (err %v):\ngot:  %s\nwant: %s", what, err, got, want)
	}
	if eager.Report != s.Render() || eager.Report != string(s.AppendReport(nil)) {
		t.Fatalf("%s: Render, AppendReport and the wire report disagree", what)
	}
}

func randKey(rng *rand.Rand) Key {
	return Key{Provider: wiretest.String(rng), InstanceType: wiretest.String(rng), Instances: rng.Intn(20) - 2}
}

func randKeys(rng *rand.Rand) []Key {
	var keys []Key
	for n := rng.Intn(3); n > 0; n-- {
		keys = append(keys, randKey(rng))
	}
	return keys
}

// randComparison builds a comparison no Run would return but whose
// every optional part comes and goes: no configs, configs without
// results or without a frontier, winners, a global frontier, a
// break-even sweep with and without flips, skipped cells, degraded.
func randComparison(rng *rand.Rand) *Comparison {
	c := &Comparison{Skipped: randKeys(rng), Degraded: rng.Intn(4) == 0}
	for _, s := range scenarioOrder {
		if rng.Intn(2) == 0 {
			c.Scenarios = append(c.Scenarios, s)
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		cfg := ConfigResult{Key: randKey(rng), DatasetSize: units.DataSize(rng.Int63n(1 << 50)), Pareto: wiretest.Pareto(rng)}
		for _, s := range c.Scenarios {
			if s != "pareto" && rng.Intn(4) > 0 {
				cfg.Results = append(cfg.Results, ScenarioResult{Scenario: s, Rec: wiretest.Recommendation(rng)})
			}
		}
		c.Configs = append(c.Configs, cfg)
	}
	for n := rng.Intn(3); n > 0; n-- {
		c.Winners = append(c.Winners, Winner{
			Scenario: wiretest.String(rng), Key: randKey(rng),
			Time: time.Duration(rng.Int63n(int64(99 * time.Hour))), Cost: wiretest.Money(rng), Feasible: rng.Intn(2) == 0,
		})
	}
	for _, p := range wiretest.Pareto(rng) {
		c.Pareto = append(c.Pareto, ParetoEntry{Key: randKey(rng), Point: p})
	}
	if rng.Intn(2) == 0 {
		be := &BreakEven{}
		for n := rng.Intn(4); n > 0; n-- {
			be.Budgets = append(be.Budgets, wiretest.Money(rng))
			be.Winners = append(be.Winners, randKey(rng))
		}
		for n := rng.Intn(3); n > 0; n-- {
			be.Flips = append(be.Flips, Flip{Budget: wiretest.Money(rng), From: randKey(rng), To: randKey(rng)})
		}
		c.BreakEven = be
	}
	return c
}

func randSweep(rng *rand.Rand) *Sweep {
	s := &Sweep{Scenario: wiretest.String(rng), Best: randKey(rng), Skipped: randKeys(rng), Degraded: rng.Intn(4) == 0}
	for n := rng.Intn(4); n > 0; n-- {
		s.Cells = append(s.Cells, SweepCell{Key: randKey(rng), DatasetSize: units.DataSize(rng.Int63n(1 << 44)), Rec: wiretest.Recommendation(rng)})
	}
	return s
}

// TestAppendJSONMatchesReflection: the compare family's hand-written
// encoders write the bytes encoding/json writes, for real comparisons
// and sweeps and for seeded hostile ones.
func TestAppendJSONMatchesReflection(t *testing.T) {
	t.Run("solved", func(t *testing.T) {
		full := testRequest(t)  // full catalog, mv1+mv2+mv3+pareto, break-even
		grid := benchRequest(t) // the load-compare-2x2 shape over the catalog
		grid.Providers = []pricing.Provider{pricing.AWS2012(), mustProvider(t, "cumulus")}
		skipped := testRequest(t)
		skipped.InstanceTypes = []string{"small", "xlarge"}
		skipped.Scenarios = []string{"mv3"}
		search := testRequest(t)
		search.Solver, search.Seed, search.Scenarios = "search", 42, []string{"mv1", "pareto"}
		tight := testRequest(t)
		tight.Budget, tight.Limit = money.Cent, time.Second // nothing feasible
		for name, req := range map[string]Request{"full": full, "grid": grid, "skipped": skipped, "search": search, "tight": tight} {
			comp, err := Run(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "skipped" && len(comp.Skipped) == 0 {
				t.Fatal("no provider lacks the xlarge type: the skipped case tests nothing")
			}
			checkComparison(t, name, comp)
		}
		for _, req := range []SweepRequest{
			{Workload: testWorkload(t, 5), FactRows: testRows, Budget: money.FromDollars(25), FleetSizes: []int{3, 5}},
			{Workload: testWorkload(t, 5), FactRows: testRows, Limit: 4 * time.Hour, InstanceTypes: []string{"small", "xlarge"}},
			{Workload: testWorkload(t, 5), FactRows: testRows, Alpha: 0.65, Solver: "search", Seed: 42},
		} {
			sw, err := RunSweep(req)
			if err != nil {
				t.Fatal(err)
			}
			checkSweep(t, "sweep "+sw.Scenario, sw)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 500; i++ {
			checkComparison(t, "random comparison", randComparison(rng))
			checkSweep(t, "random sweep", randSweep(rng))
		}
	})
}

func mustProvider(t testing.TB, name string) pricing.Provider {
	t.Helper()
	p, err := pricing.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// benchComparison is the load-compare-2x2 comparison: twelve
// recommendations with their reports, winners, the break-even sweep and
// the comparison report.
func benchComparison(tb testing.TB) *Comparison {
	req := benchRequest(tb)
	req.Providers = []pricing.Provider{pricing.AWS2012(), mustProvider(tb, "cumulus")}
	comp, err := Run(req)
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

// TestEncodeAllocBudget gates the served encode of the 2×2 comparison in
// allocations: what is left is the wire structs (Comparison.wire, and
// per recommendation the points slice and two duration strings) — no
// table, no report string, nothing per cell. It was 67 when every
// report's table was a heap object.
func TestEncodeAllocBudget(t *testing.T) {
	comp := benchComparison(t)
	buf := make([]byte, 0, 64<<10)
	if allocs := testing.AllocsPerRun(50, func() { buf, _ = comp.AppendJSON(buf[:0]) }); allocs > 52 { // 50
		t.Errorf("compare encode costs %.0f allocs, budget 52", allocs)
	}
}

// BenchmarkCompareEncode measures the served encode of benchComparison.
func BenchmarkCompareEncode(b *testing.B) {
	comp := benchComparison(b)
	buf, err := comp.AppendJSON(make([]byte, 0, 64<<10))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = comp.AppendJSON(buf[:0])
	}
}
