package core_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
	"vmcloud/internal/wiretest"
)

// checkRecommendation holds a recommendation's writer, AppendWire,
// which reads every member from the solved value, to json.Marshal of its
// eager wire form. The writer is also taken a second time after the
// first, under another scenario, feasibility and strategy, with the
// answer's bytes copied from the first.
func checkRecommendation(t *testing.T, what string, rec core.Recommendation) {
	t.Helper()
	eager := rec.JSON()
	want := wiretest.Want(t, what, eager)
	got, span, err := rec.AppendWire([]byte("["), nil)
	if err != nil || string(got[1:]) != string(want) {
		t.Fatalf("%s: AppendWire differs from encoding/json (err %v):\ngot:  %s\nwant: %s", what, err, got[1:], want)
	}
	again := rec
	again.Scenario, again.Selection.Feasible, again.Selection.Strategy = "<again>", !rec.Selection.Feasible, rec.Selection.Strategy+"\u2028"
	if !again.SameAnswer(&rec) {
		t.Fatalf("%s: a recommendation's answer differs from its own", what)
	}
	wantAgain := wiretest.Want(t, what, again.JSON())
	mark := len(got)
	if got, _, err = again.AppendWire(append(got, ','), &span); err != nil || string(got[mark+1:]) != string(wantAgain) {
		t.Fatalf("%s: the copied answer differs from encoding/json (err %v):\ngot:  %s\nwant: %s", what, err, got[mark+1:], wantAgain)
	}
	if eager.Report != rec.Render() || eager.Report != string(rec.AppendReport(nil)) {
		t.Fatalf("%s: Render, AppendReport and the wire report disagree", what)
	}
}

// checkFrontier holds the frontier writer, AppendFrontier, to
// json.Marshal of the eager wire form.
func checkFrontier(t *testing.T, what string, front []core.ParetoPoint) {
	t.Helper()
	want := wiretest.Want(t, what, core.ParetoJSON(front))
	if got, err := core.AppendFrontier([]byte("prefix"), front); err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("%s: AppendFrontier differs from encoding/json (err %v):\ngot:  %s\nwant: prefix%s", what, err, got, want)
	}
}

// TestAppendJSONMatchesReflection: the wire writers write the bytes
// encoding/json writes for the wire structs, for solved problems and for
// seeded hostile values.
func TestAppendJSONMatchesReflection(t *testing.T) {
	t.Run("solved", func(t *testing.T) {
		past, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		for i, cj := range []core.ConfigJSON{
			{Queries: 10, Frequency: 30},
			{Queries: 10, Frequency: 2, FactRows: 50_000_000, Instances: 3, Provider: "nimbus"},
			{Queries: 10, Frequency: 30, Solver: core.SolverSearch, Seed: 42},
			{Queries: 10, Frequency: 30, Solver: core.SolverSearch, Seed: 7},
		} {
			cfg, err := cj.Config()
			if err != nil {
				t.Fatal(err)
			}
			if i == 3 {
				cfg.Ctx = past // degraded: the deadline passed before the search began
			}
			adv, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []string{"$0.01", "$25", "$4000"} { // infeasible, binding, slack
				rec, err := adv.AdviseBudget(money.MustParse(budget))
				if err != nil {
					t.Fatal(err)
				}
				checkRecommendation(t, "mv1 "+budget, rec)
			}
			for _, limit := range []time.Duration{time.Second, 4 * time.Hour, 1000 * time.Hour} {
				rec, err := adv.AdviseDeadline(limit)
				if err != nil {
					t.Fatal(err)
				}
				checkRecommendation(t, "mv2 "+limit.String(), rec)
			}
			for _, alpha := range []float64{0, 0.5, 0.97, 1} {
				rec, err := adv.AdviseTradeoff(alpha)
				if err != nil {
					t.Fatal(err)
				}
				checkRecommendation(t, "mv3", rec)
			}
			front, err := adv.ParetoFront(7)
			if err != nil {
				t.Fatal(err)
			}
			checkFrontier(t, "pareto", front)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 600; i++ {
			checkRecommendation(t, "random recommendation", wiretest.Recommendation(rng))
			checkFrontier(t, "random pareto", wiretest.Pareto(rng))
		}
	})
}

// TestAppendJSONUnsupportedFloat: a NaN or an infinity in a frontier
// point is an error from its writer, as it is from encoding/json —
// never bytes.
func TestAppendJSONUnsupportedFloat(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := core.ParetoPoint{Alpha: bad}
		if _, err := wiretest.Reference(p.JSON()); err == nil {
			t.Fatal("reference encoder accepted", bad)
		}
		if _, err := p.AppendWire(nil); err == nil || !strings.Contains(err.Error(), "unsupported value") {
			t.Errorf("pareto alpha = %v: AppendWire error = %v", bad, err)
		}
		if _, err := core.AppendFrontier(nil, []core.ParetoPoint{{}, p}); err == nil {
			t.Errorf("pareto alpha = %v: AppendFrontier returned no error", bad)
		}
	}
}

// TestEncodeAllocBudget gates the encode of a recommendation and of the
// paper's 11-step frontier in allocations: none. The writers build no
// wire struct — every member is read from the solved value, each
// duration's text rendered on the stack, the report written into the
// output. A recommendation cost 3 while its served encode built the wire
// struct (its points slice and two duration strings), and 4 while the
// report's table was a heap object; the frontier cost 13 through its
// wire structs. Server's TestAdviseEncodeAllocBudget holds every
// scenario's whole body to the same.
func TestEncodeAllocBudget(t *testing.T) {
	adv := benchAdvisor(t)
	rec, err := adv.AdviseBudget(money.MustParse("$25"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf, _, _ = rec.AppendWire(buf[:0], nil) }); allocs > 0 {
		t.Errorf("advise encode costs %.0f allocs, budget 0", allocs)
	}
	front, err := adv.ParetoFront(11)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = core.AppendFrontier(buf[:0], front) }); allocs > 0 {
		t.Errorf("pareto encode costs %.0f allocs, budget 0", allocs)
	}
}

// benchAdvisor is the paper's problem: ten queries, each run thirty
// times a month.
func benchAdvisor(tb testing.TB) *core.Advisor {
	cfg, err := core.ConfigJSON{Queries: 10, Frequency: 30}.Config()
	if err != nil {
		tb.Fatal(err)
	}
	adv, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return adv
}

// BenchmarkAdviseEncode measures the served encode of the paper's mv1
// answer at a $25 budget.
func BenchmarkAdviseEncode(b *testing.B) {
	rec, err := benchAdvisor(b).AdviseBudget(money.MustParse("$25"))
	if err != nil {
		b.Fatal(err)
	}
	buf, _, err := rec.AppendWire(make([]byte, 0, 4096), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = rec.AppendWire(buf[:0], nil)
	}
}
