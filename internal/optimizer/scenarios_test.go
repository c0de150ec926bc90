package optimizer

import (
	"math"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// BuildItems computes the knapsack items for a candidate set — the
// definition KernelSession.Items is checked against.
func (ev *Evaluator) BuildItems(cands []views.Candidate) ([]Item, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	l := ev.Est.Lat
	// Assignment: each query credits its best candidate (fewest rows among
	// answering candidates that beat the base).
	baseNode, err := l.Node(l.Base())
	if err != nil {
		return nil, err
	}
	assignedSaving := make([]time.Duration, len(cands))
	for _, q := range ev.W.Queries {
		best := -1
		bestRows := baseNode.Rows
		for i, c := range cands {
			if !l.CanAnswer(c.Point, q.Point) {
				continue
			}
			if c.Rows < bestRows {
				best, bestRows = i, c.Rows
			}
		}
		if best < 0 {
			continue
		}
		_, base := l.CheapestAnswering(nil, q.Point)
		_, view := l.CheapestAnswering([]lattice.Point{cands[best].Point}, q.Point)
		tBase, tView := ev.Est.Cl.TimeForJob(base.Size), ev.Est.Cl.TimeForJob(view.Size)
		if tView < tBase {
			assignedSaving[best] += time.Duration(int64(q.Frequency)) * (tBase - tView)
		}
	}

	months := ev.Base.Months
	hourly := ev.Base.Cluster.HourlyRate() // $ per cluster-hour, exact
	storageRate := ev.Base.Cluster.Provider.Storage.Table.RateFor(ev.Base.DatasetSize)
	items := make([]Item, len(cands))
	for i, c := range cands {
		maint := ev.Est.MaintenanceTime(c.Point)
		mat := ev.Est.MaterializationTime(c.Point)
		cost := storageRate.MulFloat(c.Size.GBs() * months)
		cost = cost.Add(hourly.MulFloat(maint.Hours() * months))
		cost = cost.Add(hourly.MulFloat(mat.Hours()))
		cost = cost.Sub(hourly.MulFloat(assignedSaving[i].Hours() * months))
		items[i] = Item{Cand: c, TimeSaved: assignedSaving[i], CostDelta: cost}
	}
	return items, nil
}

// fixture reproduces the paper's experimental setting analytically:
// a 10 GB sales dataset on a 5-instance cluster, n-query workload run
// daily, exact (sub-hour) billing so small dollar differences register.
func fixture(t testing.TB, nQueries int) (*Evaluator, []views.Candidate) {
	t.Helper()
	l, err := lattice.New(schema.Sales(), 200_000_000) // ≈10 GB at 50 B/row
	if err != nil {
		t.Fatal(err)
	}
	prov := pricing.AWS2012()
	prov.Compute.Granularity = units.BillPerMinute
	cl, err := cluster.New(prov, "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	cl.JobOverhead = 2 * time.Minute
	est := views.NewEstimator(l, cl)
	w, err := workload.Sales(l, nQueries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		w.Queries[i].Frequency = 30 // daily
	}
	egress, err := w.ResultBytes(l)
	if err != nil {
		t.Fatal(err)
	}
	base := costmodel.Plan{
		Cluster:       cl,
		Months:        1,
		DatasetSize:   10 * units.GB,
		MonthlyEgress: egress,
	}
	ev, err := NewEvaluator(est, w, base)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ev, cands
}

// session binds the Section 5 solver to an oracle fixture. Every
// behavioural test solves on the session and checks the answer against
// ev's definitions (Evaluate, BuildItems, SolveExhaustive).
func session(t testing.TB, ev *Evaluator, cands []views.Candidate) *KernelSession {
	t.Helper()
	sess, err := NewSession(ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestNewSessionErrors(t *testing.T) {
	ev, cands := fixture(t, 3)
	if _, err := NewSession(nil, cands); err == nil {
		t.Error("nil evaluator accepted")
	}
	sess, err := NewSession(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if items := sess.Items(); items != nil {
		t.Errorf("Items() of an empty pool = %v", items)
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	ev, _ := fixture(t, 3)
	if _, err := NewEvaluator(nil, ev.W, ev.Base); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := NewEvaluator(ev.Est, workload.Workload{}, ev.Base); err == nil {
		t.Error("empty workload accepted")
	}
	bad := ev.Base
	bad.Months = -1
	if _, err := NewEvaluator(ev.Est, ev.W, bad); err == nil {
		t.Error("bad plan accepted")
	}
}

func TestBuildItems(t *testing.T) {
	ev, cands := fixture(t, 10)
	items, err := ev.BuildItems(cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(cands) {
		t.Fatalf("items = %d, want %d", len(items), len(cands))
	}
	var anySaving bool
	var totalSaved time.Duration
	for _, it := range items {
		if it.TimeSaved < 0 {
			t.Errorf("item %v has negative saving", it.Cand.Point)
		}
		totalSaved += it.TimeSaved
		if it.TimeSaved > 0 {
			anySaving = true
		}
	}
	if !anySaving {
		t.Error("no item saves time")
	}
	// Assignment-based savings cannot exceed the true all-views saving.
	baseT := ev.Est.WorkloadTime(ev.W, nil)
	allT := ev.Est.WorkloadTime(ev.W, views.Points(cands))
	if totalSaved > baseT-allT {
		t.Errorf("sum of item savings %v exceeds exact all-view saving %v", totalSaved, baseT-allT)
	}
	if out, err := ev.BuildItems(nil); err != nil || out != nil {
		t.Errorf("BuildItems(nil) = %v, %v", out, err)
	}
}

func TestSolveMV1ImprovesTimeWithinBudget(t *testing.T) {
	ev, cands := fixture(t, 10)
	_, baseBill, err := ev.Evaluate(nil)
	if err != nil {
		t.Fatal(err)
	}
	baseT := ev.Est.WorkloadTime(ev.W, nil)
	budget := baseBill.Total() // the paper's comparison: same budget as without views
	sel, err := session(t, ev, cands).SolveMV1(budget)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible {
		t.Fatalf("selection infeasible at budget %v (bill %v)", budget, sel.Bill.Total())
	}
	if sel.Bill.Total() > budget {
		t.Errorf("bill %v exceeds budget %v", sel.Bill.Total(), budget)
	}
	if len(sel.Points) == 0 {
		t.Fatal("no views selected despite budget headroom")
	}
	if sel.Time >= baseT {
		t.Errorf("time %v not improved from %v", sel.Time, baseT)
	}
}

func TestSolveMV1InfeasibleBudget(t *testing.T) {
	ev, cands := fixture(t, 3)
	sel, err := session(t, ev, cands).SolveMV1(money.FromDollars(0.000001))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Feasible {
		t.Error("micro-budget reported feasible")
	}
	if sel.Points != nil {
		t.Errorf("views selected under infeasible budget: %v", sel.Points)
	}
	if baseT, baseBill, _ := ev.Evaluate(nil); sel.Time != baseT || sel.Bill != baseBill {
		t.Errorf("infeasible budget priced (%v, %v), want the no-view baseline (%v, %v)",
			sel.Time, sel.Bill.Total(), baseT, baseBill.Total())
	}
}

func TestSolveMV1RespectsTightBudget(t *testing.T) {
	ev, cands := fixture(t, 10)
	_, baseBill, _ := ev.Evaluate(nil)
	// A hair above baseline: can afford little.
	budget := baseBill.Total().Add(money.FromDollars(0.10))
	sel, err := session(t, ev, cands).SolveMV1(budget)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Feasible && sel.Bill.Total() > budget {
		t.Errorf("bill %v exceeds tight budget %v", sel.Bill.Total(), budget)
	}
}

func TestSolveMV1AgainstExhaustiveOracle(t *testing.T) {
	ev, cands := fixture(t, 10)
	if len(cands) > 8 {
		cands = cands[:8]
	}
	_, baseBill, _ := ev.Evaluate(nil)
	budget := baseBill.Total().Add(money.FromDollars(1))
	dp, err := session(t, ev, cands).SolveMV1(budget)
	if err != nil {
		t.Fatal(err)
	}
	sc := Budget(budget)
	oracle, err := ev.SolveExhaustive(cands, scoreOf(sc), sc.Met)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.Feasible {
		t.Fatal("oracle found no feasible subset although no-views is feasible")
	}
	if dp.Time < oracle.Time {
		t.Errorf("knapsack time %v beats the exhaustive optimum %v — oracle bug", dp.Time, oracle.Time)
	}
	// The linearized knapsack should land within 25% of the true optimum's
	// improvement on this instance.
	baseT := ev.Est.WorkloadTime(ev.W, nil)
	oracleGain := float64(baseT - oracle.Time)
	dpGain := float64(baseT - dp.Time)
	if oracleGain > 0 && dpGain < 0.75*oracleGain {
		t.Errorf("knapsack gain %v < 75%% of oracle gain %v", time.Duration(dpGain), time.Duration(oracleGain))
	}
}

func TestSolveMV2MeetsTimeLimit(t *testing.T) {
	ev, cands := fixture(t, 10)
	baseT := ev.Est.WorkloadTime(ev.W, nil)
	limit := baseT / 2
	sel, err := session(t, ev, cands).SolveMV2(limit)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Feasible {
		t.Fatalf("limit %v not met (time %v) though views can halve the workload", limit, sel.Time)
	}
	if sel.Time > limit {
		t.Errorf("time %v exceeds limit %v", sel.Time, limit)
	}
}

func TestSolveMV2UnreachableLimit(t *testing.T) {
	ev, cands := fixture(t, 10)
	sel, err := session(t, ev, cands).SolveMV2(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Feasible {
		t.Error("1-second limit reported feasible")
	}
	if len(sel.Points) == 0 {
		t.Error("best-effort selection should still materialize helpful views")
	}
}

func TestSolveMV2AgainstExhaustiveOracle(t *testing.T) {
	ev, cands := fixture(t, 5)
	baseT := ev.Est.WorkloadTime(ev.W, nil)
	limit := baseT * 6 / 10
	dp, err := session(t, ev, cands).SolveMV2(limit)
	if err != nil {
		t.Fatal(err)
	}
	sc := Deadline(limit)
	oracle, err := ev.SolveExhaustive(cands, scoreOf(sc), sc.Met)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.Feasible || !oracle.Feasible {
		t.Fatalf("feasibility: dp=%v oracle=%v", dp.Feasible, oracle.Feasible)
	}
	if dp.Bill.Total() < oracle.Bill.Total() {
		t.Errorf("dp bill %v beats oracle %v — oracle bug", dp.Bill.Total(), oracle.Bill.Total())
	}
	// Within 25% of the optimum cost.
	if float64(dp.Bill.Total()) > 1.25*float64(oracle.Bill.Total()) {
		t.Errorf("dp bill %v > 125%% of oracle %v", dp.Bill.Total(), oracle.Bill.Total())
	}
}

func TestSolveMV3AlphaExtremes(t *testing.T) {
	ev, cands := fixture(t, 10)
	sess := session(t, ev, cands)
	// α=1: only time matters; every time-saving view should be taken.
	selT, err := sess.SolveMV3(1, RawTradeoff)
	if err != nil {
		t.Fatal(err)
	}
	items, _ := ev.BuildItems(cands)
	nSaving := 0
	for _, it := range items {
		if it.TimeSaved > 0 {
			nSaving++
		}
	}
	if len(selT.Points) != nSaving {
		t.Errorf("α=1 picked %d views, want all %d time-savers", len(selT.Points), nSaving)
	}
	// α=0: only cost matters; only self-paying views should be taken.
	selC, err := sess.SolveMV3(0, RawTradeoff)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range selC.Points {
		for _, it := range items {
			if it.Cand.Point.Equal(p) && it.CostDelta >= 0 {
				t.Errorf("α=0 picked non-self-paying view %v (Δ$=%v)", p, it.CostDelta)
			}
		}
	}
	for _, alpha := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := sess.SolveMV3(alpha, RawTradeoff); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Errorf("alpha %g: error %v, want out of [0,1]", alpha, err)
		}
	}
}

func TestSolveMV3ImprovesObjective(t *testing.T) {
	ev, cands := fixture(t, 10)
	sess := session(t, ev, cands)
	baseT, baseBill, _ := ev.Evaluate(nil)
	for _, mode := range []TradeoffMode{RawTradeoff, NormalizedTradeoff} {
		for _, alpha := range []float64{0.3, 0.65, 0.7} {
			sc, err := Tradeoff(alpha, mode, baseT, baseBill)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := sess.Solve(sc)
			if err != nil {
				t.Fatal(err)
			}
			with, without := sc.Score(Outcome{sel.Time, sel.Bill.Total()}), sc.Score(Outcome{baseT, baseBill.Total()})
			if with > without {
				t.Errorf("mode %v α=%g: objective %g worse than baseline %g", mode, alpha, with, without)
			}
		}
	}
}

// scoreOf is sc.Score in SolveExhaustive's form, of a time and a bill.
func scoreOf(sc Scenario) func(time.Duration, costmodel.Bill) float64 {
	return func(t time.Duration, bill costmodel.Bill) float64 { return sc.Score(Outcome{t, bill.Total()}) }
}

func TestSolveExhaustiveGuards(t *testing.T) {
	ev, cands := fixture(t, 3)
	big := make([]views.Candidate, 21)
	for i := range big {
		big[i] = cands[0]
	}
	sc := Budget(0)
	if _, err := ev.SolveExhaustive(big, scoreOf(sc), nil); err == nil {
		t.Error("21 candidates accepted")
	}
	if _, err := ev.SolveExhaustive(cands, nil, nil); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestEvaluateConsistency(t *testing.T) {
	ev, cands := fixture(t, 5)
	pts := views.Points(cands[:2])
	t1, b1, err := ev.Evaluate(pts)
	if err != nil {
		t.Fatal(err)
	}
	t2, b2, err := ev.Evaluate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 || b1.Total() != b2.Total() {
		t.Error("Evaluate is not deterministic")
	}
	// More views never increase exact workload time.
	t0, _, _ := ev.Evaluate(nil)
	if t1 > t0 {
		t.Errorf("views increased time: %v > %v", t1, t0)
	}
}
