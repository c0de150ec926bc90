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

// checkRecommendation holds a recommendation's routes to the wire
// together: the eager wire form, encoding/json's reflection over its
// fields, and the served routes, which read every member from the
// solved value (LazyJSON, AppendWire). The value route is also taken a
// second time after the first, under another scenario, feasibility and
// strategy, with the answer's bytes copied from the first.
func checkRecommendation(t *testing.T, what string, rec core.Recommendation) {
	t.Helper()
	eager := rec.JSON()
	wiretest.Check(t, what, eager)
	want, _ := eager.AppendJSON(nil)
	if got, err := rec.LazyJSON().AppendJSON(nil); err != nil || string(got) != string(want) {
		t.Fatalf("%s: lazy encoding differs from eager (err %v):\ngot:  %s\nwant: %s", what, err, got, want)
	}
	got, span, err := rec.AppendWire([]byte("["), nil)
	if err != nil || string(got[1:]) != string(want) {
		t.Fatalf("%s: encoding from the value differs from eager (err %v):\ngot:  %s\nwant: %s", what, err, got[1:], want)
	}
	again := rec
	again.Scenario, again.Selection.Feasible, again.Selection.Strategy = "<again>", !rec.Selection.Feasible, rec.Selection.Strategy+"\u2028"
	if !again.SameAnswer(&rec) {
		t.Fatalf("%s: a recommendation's answer differs from its own", what)
	}
	wantAgain, _ := again.JSON().AppendJSON(nil)
	mark := len(got)
	if got, _, err = again.AppendWire(append(got, ','), &span); err != nil || string(got[mark+1:]) != string(wantAgain) {
		t.Fatalf("%s: the copied answer differs from eager (err %v):\ngot:  %s\nwant: %s", what, err, got[mark+1:], wantAgain)
	}
	if eager.Report != rec.Render() || eager.Report != string(rec.AppendReport(nil)) {
		t.Fatalf("%s: Render, AppendReport and the wire report disagree", what)
	}
}

// TestAppendJSONMatchesReflection: the hand-written wire encoders write
// the bytes encoding/json writes, for solved problems and for seeded
// hostile values.
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
			for _, p := range core.ParetoJSON(front) {
				wiretest.Check(t, "pareto point", p)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 600; i++ {
			checkRecommendation(t, "random recommendation", wiretest.Recommendation(rng))
			for _, p := range core.ParetoJSON(wiretest.Pareto(rng)) {
				wiretest.Check(t, "random pareto point", p)
			}
			// Wire structs as a decoder or a caller may have left them:
			// nil where JSON() forces empty, and any float.
			j := wiretest.Recommendation(rng).JSON()
			j.Hours, j.Base.Hours, j.Gains.Time, j.Gains.Cost = wiretest.Float(rng), wiretest.Float(rng), wiretest.Float(rng), wiretest.Float(rng)
			j.Time, j.Base.Time, j.Report = wiretest.String(rng), wiretest.String(rng), wiretest.String(rng)
			if i%3 == 0 {
				j.Views, j.Points = nil, nil
			}
			wiretest.Check(t, "random wire recommendation", j)
		}
	})
}

// TestAppendJSONUnsupportedFloat: a NaN or an infinity anywhere in a
// wire struct is an error from its encoder, as it is from
// encoding/json — never bytes.
func TestAppendJSONUnsupportedFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			j := wiretest.Recommendation(rng).JSON()
			*[]*float64{&j.Hours, &j.Base.Hours, &j.Gains.Time, &j.Gains.Cost}[field] = bad
			if _, err := wiretest.Reference(j); err == nil {
				t.Fatal("reference encoder accepted", bad)
			}
			if _, err := j.AppendJSON(nil); err == nil || !strings.Contains(err.Error(), "unsupported value") {
				t.Errorf("field %d = %v: AppendJSON error = %v", field, bad, err)
			}
		}
		p := core.ParetoPointJSON{Alpha: bad}
		if _, err := p.AppendJSON(nil); err == nil {
			t.Errorf("pareto alpha = %v: AppendJSON returned no error", bad)
		}
	}
}

// benchRecommendation is the paper's mv1 problem at a $25 budget.
func benchRecommendation(tb testing.TB) core.Recommendation {
	cfg, err := core.ConfigJSON{Queries: 10, Frequency: 30}.Config()
	if err != nil {
		tb.Fatal(err)
	}
	adv, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rec, err := adv.AdviseBudget(money.MustParse("$25"))
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// TestEncodeAllocBudget gates the served encode of one recommendation
// in allocations: none. LazyJSON copies nothing, and every member is
// written from the recommendation, each duration's text on the stack.
// It was 3 while LazyJSON built the wire struct (its points slice and
// two duration strings), and 4 while the report's table was a heap
// object.
func TestEncodeAllocBudget(t *testing.T) {
	rec := benchRecommendation(t)
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = rec.LazyJSON().AppendJSON(buf[:0]) }); allocs > 0 {
		t.Errorf("advise encode costs %.0f allocs, budget 0", allocs)
	}
}

func BenchmarkAdviseEncode(b *testing.B) {
	rec := benchRecommendation(b)
	buf, err := rec.LazyJSON().AppendJSON(make([]byte, 0, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = rec.LazyJSON().AppendJSON(buf[:0])
	}
}
