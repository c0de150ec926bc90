package optimizer

import (
	"fmt"
	"sort"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/views"
)

// KernelSession is the paper's Section 5 solver: one tariff binding of a
// ComparisonKernel — the pinned structure re-priced for one provider ×
// instance × fleet configuration — with the three scenario procedures
// (SolveMV1/MV2/MV3) on it. Each linearizes the candidates into items,
// picks a subset (knapsack, min-cost cover, marginal rule) and re-prices
// that subset exactly with the Section 4 cost model. Every exact subset
// price moves the session's own incremental engine onto the subset and
// scores it, and the items and the no-view baseline are computed once
// per session, so a comparison fan-out pays the structural
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
	minT      time.Duration
	haveMin   bool

	// Scratch reused across solves (a session is single-threaded), cut
	// at its size at the first solve (sizeScratch); the break-even
	// budget sweeps of the comparison engine solve MV1 once per budget,
	// so per-solve slices would dominate the allocation profile
	// otherwise. Selections returned to callers always carry freshly
	// allocated Points — scratch never escapes.
	selBuf []int32
	idxBuf []int
	valBuf []int64
	wtBuf  []int64
	dp     frontierDP
}

// NewSession pins a candidate set against an evaluator and binds the one
// session: NewComparisonKernel + RepriceFor for callers that price a
// single tariff. Fan-outs build the kernel once and RepriceFor per cell.
func NewSession(ev *Evaluator, cands []views.Candidate) (*KernelSession, error) {
	if ev == nil {
		return nil, fmt.Errorf("optimizer: nil evaluator")
	}
	if ev.Est == nil || ev.Est.Lat == nil {
		return nil, fmt.Errorf("optimizer: incremental evaluator needs a wired evaluator")
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
	if err := k.bindInto(&s.inc, ev); err != nil {
		return nil, err
	}
	return s, nil
}

// sizeScratch cuts the solves' scratch, at a session's first solve, at
// the size a pool of n candidates needs, from one slab per element type:
// no solve picks more than n views or runs its DP over more than n
// items. Grown append by append instead, the scratch of a comparison's
// fresh sessions was a quarter of a compare miss's allocations.
func (s *KernelSession) sizeScratch() {
	if s.selBuf != nil {
		return
	}
	n := s.Kern.n
	int64s := make([]int64, 3*n)
	s.valBuf, s.wtBuf, s.dp.scaled = int64s[:0:n], int64s[n:n:2*n], int64s[2*n:2*n]
	ints := make([]int, 3*n+1)
	s.idxBuf, s.dp.chosen, s.dp.starts = ints[:0:n], ints[n:n:2*n], ints[2*n:2*n]
	s.selBuf = make([]int32, 0, n)
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
		_, bill, err := s.inc.billing.price(proc, 0, 0, 0)
		if err != nil {
			return 0, costmodel.Bill{}, err
		}
		s.baseT, s.baseBill, s.haveBase = proc, bill, true
	}
	return s.baseT, s.baseBill, nil
}

// MinTime returns the workload time with every pool candidate selected,
// computed once per session: each query runs on the head of its
// answering list, or on the base table when no candidate answers it.
// Processing time does not rise under Add (TestMonotonicityLaws), so no
// subset of the pool, and no selection a scenario returns, is faster.
func (s *KernelSession) MinTime() time.Duration {
	if !s.haveMin {
		k := s.Kern
		var t time.Duration
		for q := 0; q < k.nq; q++ {
			if head := k.qOff[q]; head < k.qOff[q+1] {
				t += s.inc.ansTerm[head]
			} else {
				t += s.inc.qBase[q]
			}
		}
		s.minT, s.haveMin = t, true
	}
	return s.minT
}

// priceSel moves the session's engine onto the candidate subset sel and
// prices it exactly: the empty subset, one Add per pick, then Score. The
// engine's state is a function of the selected set alone, so the price
// does not depend on the order sel lists its picks. These moves are the
// session's, not a search's, so the engine's move count is put back.
//
//mvlint:hotpath
func (s *KernelSession) priceSel(sel []int32) (time.Duration, costmodel.Bill, error) {
	inc := &s.inc
	moves := inc.moves
	inc.resetEmpty()
	for _, ci := range sel {
		inc.Add(int(ci))
	}
	inc.moves = moves
	return inc.Score()
}

// selectionFor assembles a Selection for an already-priced subset:
// points in selection order, nil for the empty subset, and feasible when
// it meets sc.
func (s *KernelSession) selectionFor(sel []int32, t time.Duration, bill costmodel.Bill, sc Scenario, strategy string) Selection {
	var pts []lattice.Point
	if len(sel) > 0 {
		pts = make([]lattice.Point, len(sel))
	}
	for i, ci := range sel {
		pts[i] = s.Kern.Cands[ci].Point
	}
	return Selection{Points: pts, Time: t, Bill: bill, Feasible: sc.Met(t, bill), Strategy: strategy}
}

// finishSel prices the subset and assembles its Selection.
func (s *KernelSession) finishSel(sel []int32, sc Scenario, strategy string) (Selection, error) {
	t, bill, err := s.priceSel(sel)
	if err != nil {
		return Selection{}, err
	}
	return s.selectionFor(sel, t, bill, sc, strategy), nil
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

// Solve runs the scenario's Section 5 procedure: the MV1 knapsack, the
// MV2 min-cost cover or the MV3 marginal rule.
func (s *KernelSession) Solve(sc Scenario) (Selection, error) {
	switch sc.name {
	case "mv1":
		sel, t, bill, err := s.solveMV1(sc)
		if err != nil {
			return Selection{}, err
		}
		return s.selectionFor(sel, t, bill, sc, "mv1-knapsack"), nil
	case "mv2":
		return s.solveMV2(sc)
	case "mv3":
		return s.solveMV3(sc)
	}
	return Selection{}, fmt.Errorf("optimizer: no scenario to solve")
}

// SolveMV1 is Solve(Budget(budget)).
func (s *KernelSession) SolveMV1(budget money.Money) (Selection, error) {
	return s.Solve(Budget(budget))
}

// BudgetOutcome solves MV1 at the given budget and returns only the
// scalar outcome — workload time, total cost, feasibility. The pricing
// is identical to SolveMV1 (same items, knapsack, exact repair); only
// the point-list materialization is skipped, which is what lets a
// break-even budget sweep re-price dozens of budgets per cell without
// allocation churn.
func (s *KernelSession) BudgetOutcome(budget money.Money) (time.Duration, money.Money, bool, error) {
	sc := Budget(budget)
	_, t, bill, err := s.solveMV1(sc)
	if err != nil {
		return 0, 0, false, err
	}
	return t, bill.Total(), sc.Met(t, bill), nil
}

// solveMV1 implements scenario MV1 (Formula 13): minimize workload time
// subject to total cost ≤ budget, via 0/1 knapsack DP on the items.
// Views that pay for themselves (CostDelta ≤ 0) are always taken; the
// budget slack left by the no-view baseline is spent on the rest. If the
// linearized pick overshoots the exact budget, the lowest-density views
// are dropped until the exact bill fits. It returns the chosen subset
// with its exact price, or, when even no views bust the budget, the
// infeasible no-view baseline. The slice aliases session scratch.
func (s *KernelSession) solveMV1(sc Scenario) (sel []int32, t time.Duration, bill costmodel.Bill, err error) {
	s.sizeScratch()
	baseT, baseBill, err := s.Base()
	if err != nil {
		return nil, 0, costmodel.Bill{}, err
	}
	if !sc.Met(baseT, baseBill) {
		return nil, baseT, baseBill, nil
	}
	items := s.Items()
	slack := sc.maxCost.Sub(baseBill.Total())
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
		return nil, 0, costmodel.Bill{}, err
	}
	for _, p := range picked {
		chosen = append(chosen, int32(payIdx[p]))
	}
	s.selBuf, s.idxBuf = chosen, payIdx
	// Exact repair: drop the worst time-per-dollar views while over
	// budget, one engine Drop per step. Intermediate states are priced
	// without materializing their point lists — only the caller's final
	// selection builds Points. The densities are fixed, so one sort
	// orders every step's drop.
	t, bill, err = s.priceSel(chosen)
	if err != nil {
		return nil, 0, costmodel.Bill{}, err
	}
	if !sc.Met(t, bill) {
		byDensity(chosen, items)
	}
	for !sc.Met(t, bill) && len(chosen) > 0 {
		s.inc.Drop(int(chosen[0]))
		s.inc.moves-- // a repair step, not a search move (see priceSel)
		chosen = chosen[1:]
		t, bill, err = s.inc.Score()
		if err != nil {
			return nil, 0, costmodel.Bill{}, err
		}
	}
	return chosen, t, bill, nil
}

// byDensity orders the picks for the MV1 exact repair, the view to drop
// first at the front. One sort serves every drop: what remains after a
// drop is still in order, and a sort of ordered input swaps nothing,
// ties included, so sorting again before each drop would leave the
// picks and the order of their points as they are (TestRepairSortsOnce).
func byDensity(chosen []int32, items []Item) {
	sort.Slice(chosen, func(a, b int) bool {
		return density(items[chosen[a]]) < density(items[chosen[b]])
	})
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

// SolveMV2 is Solve(Deadline(limit)).
func (s *KernelSession) SolveMV2(limit time.Duration) (Selection, error) {
	return s.Solve(Deadline(limit))
}

// solveMV2 implements scenario MV2 (Formula 14): minimize total cost
// subject to workload time ≤ limit. Self-paying views are always taken;
// if the time limit is still exceeded, a min-cost-coverage DP buys the
// cheapest additional time savings.
func (s *KernelSession) solveMV2(sc Scenario) (Selection, error) {
	s.sizeScratch()
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
	need := baseTime - sc.maxTime - saved
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
	return s.finishSel(chosen, sc, "mv2-knapsack")
}

// SolveMV3 is Solve(Tradeoff(alpha, mode, ...)) at the session's no-view
// baseline.
func (s *KernelSession) SolveMV3(alpha float64, mode TradeoffMode) (Selection, error) {
	baseT, baseBill, err := s.Base()
	if err != nil {
		return Selection{}, err
	}
	sc, err := Tradeoff(alpha, mode, baseT, baseBill)
	if err != nil {
		return Selection{}, err
	}
	return s.Solve(sc)
}

// solveMV3 implements scenario MV3 (Formula 15): minimize
// α·TprocessingQ + (1−α)·C. With an additive objective and no constraint,
// the optimum over the linearized items is to take every view whose
// marginal objective change is negative.
func (s *KernelSession) solveMV3(sc Scenario) (Selection, error) {
	s.sizeScratch()
	items := s.Items()
	tScale, cScale := 1.0, 1.0
	if sc.mode == NormalizedTradeoff {
		if sc.baseT > 0 {
			tScale = 1 / sc.baseT.Hours()
		}
		if c0 := sc.baseBill.Total(); c0 > 0 {
			cScale = 1 / c0.Dollars()
		}
	}
	alpha := float64(sc.alphaMicros) / alphaGrid
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
	return s.finishSel(chosen, sc, "mv3-marginal")
}
