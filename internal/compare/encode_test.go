package compare

import (
	"math/rand"
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
	"vmcloud/internal/wiretest"
)

// checkComparison holds a comparison's writer, which reads the solved
// value, to json.Marshal of its eager wire form.
func checkComparison(t *testing.T, what string, c *Comparison) {
	t.Helper()
	eager := c.JSON()
	want := wiretest.Want(t, what, eager)
	if got, err := c.AppendJSON([]byte("prefix")); err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("%s: served encoding differs from encoding/json (err %v):\ngot:  %s\nwant: prefix%s", what, err, got, want)
	}
	if eager.Report != c.Render() || eager.Report != string(c.AppendReport(nil)) {
		t.Fatalf("%s: Render, AppendReport and the wire report disagree", what)
	}
}

// checkSweep does the same for a sweep.
func checkSweep(t *testing.T, what string, s *Sweep) {
	t.Helper()
	eager := s.JSON()
	want := wiretest.Want(t, what, eager)
	if got, err := s.AppendJSON([]byte("prefix")); err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("%s: served encoding differs from encoding/json (err %v):\ngot:  %s\nwant: prefix%s", what, err, got, want)
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
				cfg.Results = append(cfg.Results, ScenarioResult{Scenario: s, Rec: randAnswer(rng, cfg.Results)})
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

// randAnswer returns a random recommendation, or, half the time, one
// that repeats the answer of an earlier scenario in its row under its
// own scenario, feasibility and strategy — as a row's scenarios often
// coincide — sometimes with one answer member changed, so that the
// answers only nearly coincide.
func randAnswer(rng *rand.Rand, row []ScenarioResult) core.Recommendation {
	rec := wiretest.Recommendation(rng)
	if len(row) == 0 || rng.Intn(2) == 0 {
		return rec
	}
	same := row[rng.Intn(len(row))].Rec
	same.Scenario, same.Selection.Feasible, same.Selection.Strategy = rec.Scenario, rec.Selection.Feasible, rec.Selection.Strategy
	switch rng.Intn(8) {
	case 0:
		same.Selection.Bill.Storage++
	case 1:
		same.BaselineTime++
	case 2:
		if len(same.ViewNames) > 0 {
			same.ViewNames = append([]string{wiretest.String(rng)}, same.ViewNames[1:]...)
		}
	case 3:
		if same.Selection.Points == nil {
			same.Selection.Points = []lattice.Point{}
		} else if len(same.Selection.Points) == 0 {
			same.Selection.Points = nil
		}
	case 4:
		same.Selection.Degraded = !same.Selection.Degraded
	}
	return same
}

func randSweep(rng *rand.Rand) *Sweep {
	s := &Sweep{Scenario: wiretest.String(rng), Best: randKey(rng), Skipped: randKeys(rng), Degraded: rng.Intn(4) == 0}
	for n := rng.Intn(4); n > 0; n-- {
		s.Cells = append(s.Cells, SweepCell{Key: randKey(rng), DatasetSize: units.DataSize(rng.Int63n(1 << 44)), Rec: wiretest.Recommendation(rng)})
	}
	return s
}

// TestAppendJSONMatchesReflection: the compare family's writers write
// the bytes encoding/json writes for the wire structs, for real
// comparisons and sweeps and for seeded hostile ones.
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
		// Caller-supplied tariffs whose provider and instance type names
		// need escaping, so that every key cell of the report's tables
		// takes the escaping path.
		hostile := bench2x2Request(t)
		renamed := hostile.Providers[0].Clone()
		renamed.Name = "aws \"2012\" <&>\u2028\\"
		odd := renamed.Compute.Instances["small"]
		odd.Name = "sm\x01all\u2029\xff"
		renamed.Compute.Instances[odd.Name] = odd
		hostile.Providers[0] = renamed
		hostile.InstanceTypes = []string{"small", odd.Name}
		// A grid whose rows mix equal and different answers: at a $5
		// budget some scenarios of a row answer alike and others do not,
		// so both the copied answer and the copied baseline alone are
		// written (rowCopies counts them).
		mixed := bench2x2Request(t)
		mixed.Budget = money.FromDollars(5)
		for name, req := range map[string]Request{"full": full, "grid": grid, "skipped": skipped, "search": search, "tight": tight, "hostile": hostile, "mixed": mixed} {
			comp, err := Run(req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "skipped" && len(comp.Skipped) == 0 {
				t.Fatal("no provider lacks the xlarge type: the skipped case tests nothing")
			}
			if name == "hostile" && (len(comp.Configs) != 6 || len(comp.Skipped) != 2) {
				t.Fatalf("hostile grid solved %d cells and skipped %d, want 6 and 2 (cumulus lacks the odd type)", len(comp.Configs), len(comp.Skipped))
			}
			if name == "mixed" {
				same, baselineOnly := rowCopies(comp)
				if same == 0 || baselineOnly == 0 {
					t.Fatalf("mixed grid: %d copied answers and %d copied baselines alone, want both", same, baselineOnly)
				}
			}
			checkComparison(t, name, comp)
		}
		problem := core.Config{Workload: testWorkload(t, 5), FactRows: testRows}
		searched := problem
		searched.Solver, searched.Seed = "search", 42
		alpha := 0.65
		for _, req := range []SweepRequest{
			{Config: problem, Budget: money.FromDollars(25), FleetSizes: []int{3, 5}},
			{Config: problem, Limit: 4 * time.Hour, InstanceTypes: []string{"small", "xlarge"}},
			{Config: searched, Alpha: &alpha},
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

// rowCopies counts, over c's rows, the results appendResults writes by
// copying an earlier result's answer, and those that copy only its
// baseline.
func rowCopies(c *Comparison) (same, baselineOnly int) {
	for _, cfg := range c.Configs {
		for k := range cfg.Results {
			rec, baseline := &cfg.Results[k].Rec, false
			for p := 0; p < k; p++ {
				if prior := &cfg.Results[p].Rec; prior.SameAnswer(rec) {
					same++
					baseline = false
					break
				} else if prior.SameBaseline(rec) {
					baseline = true
				}
			}
			if baseline {
				baselineOnly++
			}
		}
	}
	return same, baselineOnly
}

func mustProvider(t testing.TB, name string) pricing.Provider {
	t.Helper()
	p, err := pricing.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bench2x2Request is the load-compare-2x2 request: benchRequest on two
// tariffs.
func bench2x2Request(tb testing.TB) Request {
	req := benchRequest(tb)
	req.Providers = []pricing.Provider{pricing.AWS2012(), mustProvider(tb, "cumulus")}
	return req
}

// benchComparison is the load-compare-2x2 comparison: twelve
// recommendations with their reports, winners, the break-even sweep and
// the comparison report.
func benchComparison(tb testing.TB) *Comparison {
	comp, err := Run(bench2x2Request(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return comp
}

// TestEncodeAllocBudget gates the served encode of the 2×2 comparison
// and of the ten-cell catalog sweep in allocations: none. The writers
// build no wire struct — every member is read from the solved value,
// each duration's text rendered on the stack — and write every report
// into their output. The comparison was 67 when every report's table
// was a heap object, and 50 while the encode built the wire structs,
// with a points slice and two duration strings per recommendation. The
// sweep was 12 while its encode built its wire structs, and its report's
// table spilled to the heap from four cells up until report.Table kept
// 2 KB inline.
func TestEncodeAllocBudget(t *testing.T) {
	comp := benchComparison(t)
	buf := make([]byte, 0, 64<<10)
	if allocs := testing.AllocsPerRun(50, func() { buf, _ = comp.AppendJSON(buf[:0]) }); allocs > 0 {
		t.Errorf("compare encode costs %.0f allocs, budget 0", allocs)
	}
	sw, err := RunSweep(SweepRequest{Config: benchRequest(t).Config, Budget: money.FromDollars(25), FleetSizes: []int{3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 10 {
		t.Fatalf("catalog sweep has %d cells, want 10", len(sw.Cells))
	}
	if allocs := testing.AllocsPerRun(50, func() { buf, _ = sw.AppendJSON(buf[:0]) }); allocs > 0 {
		t.Errorf("sweep encode costs %.0f allocs, budget 0", allocs)
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
