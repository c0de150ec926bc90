package optimizer

import (
	"fmt"
	"sort"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
)

// KernelSession is the paper's Section 5 solver: one tariff binding of a
// ComparisonKernel — the pinned structure re-priced for one provider ×
// instance × fleet configuration — with the three scenario procedures
// (SolveMV1/MV2/MV3) on it. Each linearizes the candidates into items,
// picks a subset (knapsack, min-cost cover, marginal rule) and re-prices
// that subset exactly with the Section 4 cost model. Every exact subset
// evaluation runs over the kernel's flat arrays (integer row comparisons
// and precomputed durations), and the items and the no-view baseline are
// computed once per session, so a comparison fan-out pays the structural
// cost once per problem and only the O(arithmetic) re-bill per tariff
// cell. The Evaluator's definitions are the oracle:
// TestKernelSessionMatchesEvaluator holds Base, Items and every returned
// (Time, Bill) to them bit for bit.
//
// A session is NOT safe for concurrent use (it owns scratch state and an
// incremental engine); fan-outs bind one session per worker cell.
type KernelSession struct {
	// Kern is the shared pricing-invariant structure.
	Kern *ComparisonKernel
	// Ev is the bound exact evaluator (cluster, plan template, tariff).
	Ev *Evaluator

	// inc is the session's delta-evaluation engine, held by value: one
	// allocation carries the session and its engine.
	inc IncrementalEvaluator

	// Lazily cached per-session values.
	items     []Item
	haveItems bool
	baseT     time.Duration
	baseBill  costmodel.Bill
	haveBase  bool

	// Scratch reused across solves (a session is single-threaded); the
	// break-even budget sweeps of the comparison engine call SolveMV1
	// once per budget, so per-solve slices would dominate the allocation
	// profile otherwise. Selections returned to callers always carry
	// freshly allocated Points — scratch never escapes.
	servedBuf []int64
	selBuf    []int32
	idxBuf    []int
	valBuf    []int64
	wtBuf     []int64
	dp        frontierDP
	bestCand  []int32
	bestRows  []int64
}

// NewSession pins a candidate set against an evaluator and binds the one
// session: NewComparisonKernel + RepriceFor for callers that price a
// single tariff. Fan-outs build the kernel once and RepriceFor per cell.
func NewSession(ev *Evaluator, cands []views.Candidate) (*KernelSession, error) {
	if ev == nil {
		return nil, fmt.Errorf("optimizer: nil evaluator")
	}
	k, err := NewComparisonKernel(ev.Est.Lat, ev.W, cands)
	if err != nil {
		return nil, err
	}
	return k.RepriceFor(ev)
}

// RepriceFor binds the kernel to one tariff: the evaluator supplies the
// cluster, billing period and plan template of a single provider ×
// instance × fleet configuration; everything structural is reused from
// the kernel. This is the whole per-cell rebuild of a cross-tariff
// comparison.
func (k *ComparisonKernel) RepriceFor(ev *Evaluator) (*KernelSession, error) {
	s := &KernelSession{Kern: k, Ev: ev}
	groups := len(k.groupMembers)
	int64s, int32s, err := k.bindInto(&s.inc, ev, groups+k.nq, k.nq)
	if err != nil {
		return nil, err
	}
	s.servedBuf, s.bestRows, s.bestCand = int64s[:groups:groups], int64s[groups:], int32s
	return s, nil
}

// Engine returns the session's incremental delta-evaluation engine — the
// structure-sharing hook the metaheuristic search solvers accept via
// search.Options.Engine, so a search solve reuses the session's pinned
// answering lists instead of rebuilding them.
func (s *KernelSession) Engine() *IncrementalEvaluator { return &s.inc }

// Base returns the exact no-view baseline — workload time and bill with
// nothing materialized — computed once per session.
func (s *KernelSession) Base() (time.Duration, costmodel.Bill, error) {
	if !s.haveBase {
		var proc time.Duration
		for q := 0; q < s.Kern.nq; q++ {
			proc += s.inc.qBase[q]
		}
		plan := s.Ev.Base.WithViews(0, proc, 0, 0)
		bill, err := plan.Bill()
		if err != nil {
			return 0, costmodel.Bill{}, err
		}
		s.baseT, s.baseBill, s.haveBase = proc, bill, true
	}
	return s.baseT, s.baseBill, nil
}

// evaluateSel prices the candidate subset sel (candidate indices, in
// selection order) exactly — the Section 4 cost model of those points:
// cheapest-answering routing with the first-strictly-fewer-rows tie
// rule, policy-aware maintenance, and the full tiered bill.
//
//mvlint:hotpath
func (s *KernelSession) evaluateSel(sel []int32) (time.Duration, costmodel.Bill, error) {
	k, sc := s.Kern, &s.inc.sessionScalars
	var proc, maint, mat time.Duration
	var sizeSum units.DataSize
	deferred := sc.deferred && sc.runs > 0
	served := s.servedBuf
	if deferred {
		for g := range served {
			served[g] = 0
		}
	}
	// Route every query to its cheapest answering source. Candidates are
	// processed in selection order with a strict row comparison per
	// query, so the per-query winner is exactly CheapestAnswering's
	// first-strictly-fewer-rows-in-scan-order choice (the loop nesting is
	// swapped for locality; per query the candidate order is unchanged).
	bestCand, bestRows := s.bestCand, s.bestRows
	for q := 0; q < k.nq; q++ {
		bestCand[q] = -1
		bestRows[q] = k.baseRows
	}
	for _, ci := range sel {
		ri := k.rows[ci]
		for _, q := range k.cand2q[ci] {
			if ri < bestRows[q] {
				bestRows[q], bestCand[q] = ri, ci
			}
		}
	}
	for q := 0; q < k.nq; q++ {
		best := bestCand[q]
		if best < 0 {
			proc += sc.qBase[q]
			continue
		}
		proc += time.Duration(k.qFreq[q]) * sc.candJob[best]
		if deferred {
			served[k.group[best]] += k.qFreq[q]
		}
	}
	for _, ci := range sel {
		mat += sc.mat[ci]
		sizeSum += k.size[ci]
		if !sc.deferred {
			maint += sc.maint[ci]
		} else if sc.runs > 0 {
			maint += time.Duration(min(served[k.group[ci]], sc.runs)) * sc.perRun[ci]
		}
	}
	plan := s.Ev.Base.WithViews(sizeSum, proc, maint, mat)
	bill, err := plan.Bill()
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	return proc, bill, nil
}

// selectionFor assembles a Selection for an already-priced subset
// (points in selection order, feasibility check).
func (s *KernelSession) selectionFor(sel []int32, t time.Duration, bill costmodel.Bill, strategy string, feasible func(time.Duration, costmodel.Bill) bool) Selection {
	pts := make([]lattice.Point, len(sel))
	for i, ci := range sel {
		pts[i] = s.Kern.Cands[ci].Point
	}
	out := Selection{Points: pts, Time: t, Bill: bill, Strategy: strategy}
	if feasible != nil {
		out.Feasible = feasible(t, bill)
	} else {
		out.Feasible = true
	}
	return out
}

// finishSel prices the subset and assembles its Selection.
func (s *KernelSession) finishSel(sel []int32, strategy string, feasible func(time.Duration, costmodel.Bill) bool) (Selection, error) {
	t, bill, err := s.evaluateSel(sel)
	if err != nil {
		return Selection{}, err
	}
	return s.selectionFor(sel, t, bill, strategy, feasible), nil
}

// Items returns the linearized knapsack items of the pinned candidates
// (the Section 5.2 weights, see Item), computed once per session. The
// slice is shared — callers must not mutate it.
func (s *KernelSession) Items() []Item {
	if s.haveItems {
		return s.items
	}
	k, sc := s.Kern, &s.inc.sessionScalars
	if k.n == 0 {
		s.haveItems = true
		return nil
	}
	// Assignment: each query credits its best candidate — fewest rows
	// among the answering candidates that beat the base, lowest candidate
	// index on ties. The answering list is sorted by exactly that rule,
	// so the best candidate is its head.
	assignedSaving := make([]time.Duration, k.n)
	for q := 0; q < k.nq; q++ {
		if k.qOff[q] == k.qOff[q+1] {
			continue
		}
		best := k.ansCand[k.qOff[q]]
		if tView := sc.candJob[best]; tView < sc.baseJob {
			assignedSaving[best] += time.Duration(k.qFreq[q]) * (sc.baseJob - tView)
		}
	}
	months := s.Ev.Base.Months
	hourly := s.Ev.Base.Cluster.HourlyRate()
	storageRate := s.Ev.Base.Cluster.Provider.Storage.Table.RateFor(s.Ev.Base.DatasetSize)
	items := make([]Item, k.n)
	for i, c := range k.Cands {
		cost := storageRate.MulFloat(c.Size.GBs() * months)
		cost = cost.Add(hourly.MulFloat(sc.maint[i].Hours() * months))
		cost = cost.Add(hourly.MulFloat(sc.mat[i].Hours()))
		cost = cost.Sub(hourly.MulFloat(assignedSaving[i].Hours() * months))
		items[i] = Item{Cand: c, TimeSaved: assignedSaving[i], CostDelta: cost}
	}
	s.items, s.haveItems = items, true
	return items
}

// SolveMV1 implements scenario MV1 (Formula 13): minimize workload time
// subject to total cost ≤ budget, via 0/1 knapsack DP on the items.
// Views that pay for themselves (CostDelta ≤ 0) are always taken; the
// budget slack left by the no-view baseline is spent on the rest. If the
// linearized pick overshoots the exact budget, the lowest-density views
// are dropped until the exact bill fits.
func (s *KernelSession) SolveMV1(budget money.Money) (Selection, error) {
	feasible := func(_ time.Duration, b costmodel.Bill) bool { return b.Total() <= budget }
	sel, t, bill, baselineOnly, err := s.solveMV1(budget)
	if err != nil {
		return Selection{}, err
	}
	out := s.selectionFor(sel, t, bill, "mv1-knapsack", feasible)
	if baselineOnly {
		// Even without views the budget does not cover the workload:
		// the infeasible baseline, with nil points.
		out.Points = nil
	}
	return out, nil
}

// BudgetOutcome solves MV1 at the given budget and returns only the
// scalar outcome — workload time, total cost, feasibility. The pricing
// is identical to SolveMV1 (same items, knapsack, exact repair); only
// the point-list materialization is skipped, which is what lets a
// break-even budget sweep re-price dozens of budgets per cell without
// allocation churn.
func (s *KernelSession) BudgetOutcome(budget money.Money) (time.Duration, money.Money, bool, error) {
	_, t, bill, _, err := s.solveMV1(budget)
	if err != nil {
		return 0, 0, false, err
	}
	return t, bill.Total(), bill.Total() <= budget, nil
}

// solveMV1 is the shared MV1 core: the chosen subset with its exact
// price, or the no-view baseline's with baselineOnly set when even that
// busts the budget. The returned slice aliases session scratch.
func (s *KernelSession) solveMV1(budget money.Money) (sel []int32, t time.Duration, bill costmodel.Bill, baselineOnly bool, err error) {
	feasible := func(_ time.Duration, b costmodel.Bill) bool { return b.Total() <= budget }
	baseT, baseBill, err := s.Base()
	if err != nil {
		return nil, 0, costmodel.Bill{}, false, err
	}
	if baseBill.Total() > budget {
		return nil, baseT, baseBill, true, nil
	}
	items := s.Items()
	slack := budget.Sub(baseBill.Total())
	chosen := s.selBuf[:0]
	payIdx := s.idxBuf[:0]
	for i, it := range items {
		if it.CostDelta <= 0 && it.TimeSaved > 0 {
			chosen = append(chosen, int32(i))
			slack = slack.Add(it.CostDelta.Neg())
		}
	}
	values, weights := s.valBuf[:0], s.wtBuf[:0]
	for i, it := range items {
		if it.CostDelta > 0 && it.TimeSaved > 0 {
			payIdx = append(payIdx, i)
			values = append(values, int64(it.TimeSaved))
			weights = append(weights, it.CostDelta.Micros())
		}
	}
	s.valBuf, s.wtBuf = values, weights
	picked, err := s.dp.knapsack01(values, weights, slack.Micros())
	if err != nil {
		return nil, 0, costmodel.Bill{}, false, err
	}
	for _, p := range picked {
		chosen = append(chosen, int32(payIdx[p]))
	}
	s.selBuf, s.idxBuf = chosen, payIdx
	// Exact repair: drop the worst time-per-dollar views while over
	// budget. Intermediate states are evaluated without materializing
	// their point lists — only the caller's final selection builds Points.
	t, bill, err = s.evaluateSel(chosen)
	if err != nil {
		return nil, 0, costmodel.Bill{}, false, err
	}
	for !feasible(t, bill) && len(chosen) > 0 {
		sort.Slice(chosen, func(a, b int) bool {
			return density(items[chosen[a]]) < density(items[chosen[b]])
		})
		chosen = chosen[1:]
		t, bill, err = s.evaluateSel(chosen)
		if err != nil {
			return nil, 0, costmodel.Bill{}, false, err
		}
	}
	return chosen, t, bill, false, nil
}

// density ranks a chosen item for the MV1 exact repair: time saved per
// dollar, lowest dropped first.
func density(it Item) float64 {
	if it.CostDelta <= 0 {
		return float64(it.TimeSaved) + 1e18 // free views sort last (never dropped first)
	}
	//mvlint:allow moneyfloat -- score-space repair ranking, not billing arithmetic; goldens pin these exact floats
	return float64(it.TimeSaved) / float64(it.CostDelta)
}

// SolveMV2 implements scenario MV2 (Formula 14): minimize total cost
// subject to workload time ≤ limit. Self-paying views are always taken;
// if the time limit is still exceeded, a min-cost-coverage DP buys the
// cheapest additional time savings.
func (s *KernelSession) SolveMV2(limit time.Duration) (Selection, error) {
	feasible := func(t time.Duration, _ costmodel.Bill) bool { return t <= limit }
	items := s.Items()
	baseTime, _, err := s.Base()
	if err != nil {
		return Selection{}, err
	}

	chosen := s.selBuf[:0]
	saved := time.Duration(0)
	for i, it := range items {
		if it.CostDelta <= 0 && it.TimeSaved > 0 {
			chosen = append(chosen, int32(i))
			saved += it.TimeSaved
		}
	}
	need := baseTime - limit - saved
	if need > 0 {
		costs, gains := s.wtBuf[:0], s.valBuf[:0]
		idx := s.idxBuf[:0]
		for i, it := range items {
			if it.CostDelta > 0 && it.TimeSaved > 0 {
				idx = append(idx, i)
				costs = append(costs, it.CostDelta.Micros())
				gains = append(gains, int64(it.TimeSaved))
			}
		}
		s.wtBuf, s.valBuf, s.idxBuf = costs, gains, idx
		picked, ok, err := s.dp.minCostCover(costs, gains, int64(need))
		if err != nil {
			return Selection{}, err
		}
		if ok {
			for _, p := range picked {
				chosen = append(chosen, int32(idx[p]))
			}
		} else {
			// Constraint unreachable: return the best effort (all
			// time-saving views) marked infeasible.
			for _, i := range idx {
				chosen = append(chosen, int32(i))
			}
		}
	}
	s.selBuf = chosen
	return s.finishSel(chosen, "mv2-knapsack", feasible)
}

// SolveMV3 implements scenario MV3 (Formula 15): minimize
// α·TprocessingQ + (1−α)·C. With an additive objective and no constraint,
// the optimum over the linearized items is to take every view whose
// marginal objective change is negative.
func (s *KernelSession) SolveMV3(alpha float64, mode TradeoffMode) (Selection, error) {
	if alpha < 0 || alpha > 1 {
		return Selection{}, fmt.Errorf("optimizer: alpha %g out of [0,1]", alpha)
	}
	items := s.Items()
	tScale, cScale := 1.0, 1.0
	if mode == NormalizedTradeoff {
		t0, b0, err := s.Base()
		if err != nil {
			return Selection{}, err
		}
		if t0 > 0 {
			tScale = 1 / t0.Hours()
		}
		if b0.Total() > 0 {
			cScale = 1 / b0.Total().Dollars()
		}
	}
	chosen := s.selBuf[:0]
	for i, it := range items {
		// The float64 conversions round each product before the add, so no port
		// fuses them into one multiply-add (scripts/nofma.sh).
		delta := float64(alpha*(-it.TimeSaved.Hours())*tScale) + float64((1-alpha)*it.CostDelta.Dollars()*cScale)
		if delta < 0 {
			chosen = append(chosen, int32(i))
		}
	}
	s.selBuf = chosen
	return s.finishSel(chosen, "mv3-marginal", nil)
}
