package core

import (
	"fmt"
	"testing"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// fuzzProblem decodes a fuzzed advisory problem: a config (the sales
// schema or a 27-cuboid synthetic one, a workload of 1–10 queries, both
// solvers, both maintenance policies, 1–8 candidates) and a scenario
// with its parameter.
func fuzzProblem(t *testing.T, rows uint32, queries, freq, kind uint8, param uint16) (Config, string, int) {
	t.Helper()
	cfg := Config{
		FactRows:        int64(rows%2_000_000_000) + 1,
		CandidateBudget: 1 + int(kind>>4)%8,
		Seed:            int64(param),
	}
	if kind&4 != 0 {
		cfg.Solver = SolverSearch
	}
	if kind&8 != 0 {
		cfg.MaintenancePolicy = views.DeferredMaintenance
	}
	n := 1 + int(queries)%10
	if kind&128 == 0 {
		w, err := workload.SalesPrefix(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Queries {
			w.Queries[i].Frequency = 1 + (int(freq)+7*i)%60
		}
		cfg.Workload = w
	} else {
		sch, err := schema.Synthetic(3, 3)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lattice.New(sch, cfg.FactRows)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Workload, err = workload.Random(l, n, 1+int(freq)%60, int64(param)); err != nil {
			t.Fatal(err)
		}
		cfg.Schema = sch
	}
	return cfg, [...]string{"mv1", "mv2", "mv3", "pareto"}[kind%4], int(param)
}

// answer solves the scenario on cfg and renders everything a caller
// reads of the answer: the wire form and the report of a
// recommendation, or every point of a frontier, or the error.
func answer(cfg Config, scenario string, param int) string {
	adv, err := New(cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	var rec Recommendation
	switch scenario {
	case "mv1":
		rec, err = adv.AdviseBudget(money.FromDollars(float64(param%5000) / 100))
	case "mv2":
		rec, err = adv.AdviseDeadline(time.Duration(param%2000) * time.Hour / 10)
	case "mv3":
		rec, err = adv.AdviseTradeoff(float64(param%101) / 100)
	default:
		var front []ParetoPoint
		if front, err = adv.ParetoFront(2 + param%12); err == nil {
			return fmt.Sprintf("%d candidates %v %+v", len(adv.Candidates), DatasetSizeOf(adv), front)
		}
	}
	if err != nil {
		return "error: " + err.Error()
	}
	wire, _, err := rec.AppendWire(nil, nil)
	return fmt.Sprintf("%d candidates %v %s %v\n%s", len(adv.Candidates), DatasetSizeOf(adv), wire, err, rec.Render())
}

// FuzzWorkspaceRecycle solves two fuzzed problems back to back on one
// workspace and holds each answer to the same problem solved on a new
// workspace: nothing the first solve leaves in the workspace's arrays
// reaches the second.
func FuzzWorkspaceRecycle(f *testing.F) {
	f.Add(uint32(200_000_000), uint8(9), uint8(30), uint8(0x30), uint16(2500), uint32(50_000_000), uint8(4), uint8(20), uint8(0x71), uint16(900))
	f.Add(uint32(10_000_000), uint8(2), uint8(5), uint8(0x83), uint16(7), uint32(300_000_000), uint8(9), uint8(45), uint8(0x0e), uint16(64000))
	f.Add(uint32(999_999), uint8(0), uint8(0), uint8(0xff), uint16(3), uint32(1), uint8(9), uint8(59), uint8(0x05), uint16(1234))
	f.Fuzz(func(t *testing.T, rowsA uint32, qA, fA, kindA uint8, pA uint16, rowsB uint32, qB, fB, kindB uint8, pB uint16) {
		cfgA, scA, paramA := fuzzProblem(t, rowsA, qA, fA, kindA, pA)
		cfgB, scB, paramB := fuzzProblem(t, rowsB, qB, fB, kindB, pB)
		wantA, wantB := answer(cfgA, scA, paramA), answer(cfgB, scB, paramB)
		ws := new(Workspace)
		cfgA.Workspace, cfgB.Workspace = ws, ws
		if got := answer(cfgA, scA, paramA); got != wantA {
			t.Fatalf("first solve on the workspace:\n got %s\nwant %s", got, wantA)
		}
		if got := answer(cfgB, scB, paramB); got != wantB {
			t.Fatalf("second solve on the workspace:\n got %s\nwant %s", got, wantB)
		}
	})
}

// TestInvalidWorkloadTexts pins what a build answers an invalid
// workload with, text for text: the one validation NewShared runs
// words it as Workload.Validate does.
func TestInvalidWorkloadTexts(t *testing.T) {
	p := func(l ...int) lattice.Point { return lattice.Point(l) }
	q := func(name string, pt lattice.Point, freq int) workload.Query {
		return workload.Query{Name: name, Point: pt, Frequency: freq}
	}
	sales, err := workload.SalesLattice(nil, DefaultFactRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		queries []workload.Query
		want    string
	}{
		{nil, "workload: empty workload"},
		{[]workload.Query{q("a", p(1, 1), 0)}, "workload: query 0 (a) has frequency 0"},
		{[]workload.Query{q("a", p(2, 2), -1), q("b", p(7, 7), 1)}, "workload: query 0 (a) has frequency -1"},
		{[]workload.Query{q("a", p(1, 1), 3), q("b", p(1), 3)}, "workload: query 1 (b): lattice: point [1] has 1 dims, schema has 2"},
		{[]workload.Query{q("a", p(0, 9), 3)}, "workload: query 0 (a): lattice: point [0 9] level 9 out of range [0,4)"},
		{[]workload.Query{q("a", p(-1, 0), 3)}, "workload: query 0 (a): lattice: point [-1 0] level -1 out of range [0,4)"},
	} {
		w := workload.Workload{Queries: c.queries}
		if _, err := New(Config{Workload: w}); err == nil || err.Error() != c.want {
			t.Errorf("%v: New: %v, want %s", c.queries, err, c.want)
		}
		if err := w.Validate(sales); err == nil || err.Error() != c.want {
			t.Errorf("%v: Validate: %v, want %s", c.queries, err, c.want)
		}
	}
	w, err := workload.SalesPrefix(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workload: w, CandidateBudget: -1}); err == nil || err.Error() != "views: non-positive candidate budget -1" {
		t.Errorf("candidate budget -1: %v", err)
	}
}
