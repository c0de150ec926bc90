// Package search provides deterministic, seedable metaheuristic solvers
// for the view-selection problem on large cuboid lattices.
//
// The paper's knapsack formulation (Section 5.2) linearizes each view's
// effect on the bill and the workload time. The approximation is not
// free even on the 16-node sales lattice — the repo benchmark's oracle
// measures the knapsack's answers 8.7–13.2% off the exhaustive optimum
// on 7-candidate pools (ROADMAP item 1) — and as the candidate space
// grows (4–5 dimension schemas, hundreds–thousands of cuboids) the
// double-counting of shared query savings and the tier/rounding errors of
// CostDelta bite harder. The solvers here sidestep linearization
// entirely: every move is priced by the exact optimizer.Evaluator
// (cheapest-answering routing plus the full tiered, rounded bill), so
// what the search optimizes is exactly what the final selection is
// billed for.
//
// Three engines are provided, composed by the Solve restart wrapper:
//
//   - steepest-ascent hill climbing over add/drop/swap neighborhoods
//     (hillclimb.go),
//   - simulated annealing with a geometric cooling schedule (anneal.go),
//   - a multi-start restart wrapper seeding both from deterministic and
//     seeded-random subsets (this file).
//
// All randomness flows from Options.Seed through a single PRNG, so the
// same seed always reproduces the same selection — a property the serving
// layer's memoization relies on (the seed is part of the cache key).
package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/obs"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/views"
)

// Objective is what a solver minimizes: a scalar score plus a constraint
// violation measure. Feasible states (Violation == 0) always beat
// infeasible ones; among infeasible states smaller violations win, so the
// search is pulled back into the feasible region before it optimizes.
type Objective struct {
	// Name tags the produced Selection.Strategy ("mv1", "mv2", "mv3").
	Name string
	// Score is the value minimized among feasible states.
	Score func(t time.Duration, b costmodel.Bill) float64
	// Violation quantifies the constraint breach; 0 means feasible. Nil
	// means unconstrained.
	Violation func(t time.Duration, b costmodel.Bill) float64
}

// BudgetObjective is scenario MV1: minimize workload time subject to the
// exact period bill staying within budget.
func BudgetObjective(budget money.Money) Objective {
	return Objective{
		Name:  "mv1",
		Score: func(t time.Duration, _ costmodel.Bill) float64 { return t.Hours() },
		Violation: func(_ time.Duration, b costmodel.Bill) float64 {
			if over := b.Total().Sub(budget); over > 0 {
				return over.Dollars()
			}
			return 0
		},
	}
}

// DeadlineObjective is scenario MV2: minimize the exact bill subject to
// the monthly workload time staying within the limit.
func DeadlineObjective(limit time.Duration) Objective {
	return Objective{
		Name:  "mv2",
		Score: func(_ time.Duration, b costmodel.Bill) float64 { return b.Total().Dollars() },
		Violation: func(t time.Duration, _ costmodel.Bill) float64 {
			if t > limit {
				return (t - limit).Hours()
			}
			return 0
		},
	}
}

// TradeoffObjective is scenario MV3: minimize α·T + (1−α)·C
// (optimizer.Objective), unconstrained. baseT/baseBill feed the
// normalized mode and are ignored for RawTradeoff.
func TradeoffObjective(alpha float64, mode optimizer.TradeoffMode, baseT time.Duration, baseBill costmodel.Bill) Objective {
	return Objective{
		Name: "mv3",
		Score: func(t time.Duration, b costmodel.Bill) float64 {
			return optimizer.Objective(alpha, t, b, mode, baseT, baseBill)
		},
	}
}

// The search's fixed tuning, and the evaluation budget
// Options.withDefaults applies.
const (
	// DefaultMaxEvals bounds exact evaluator calls per solve.
	DefaultMaxEvals = 4096
	// DefaultRestarts is the number of seeded-random starting subsets
	// tried in addition to the deterministic starts (empty set,
	// greedy-density prefixes, caller-provided Starts).
	DefaultRestarts = 3
	// DefaultCooling is the annealing pass's geometric cooling rate.
	DefaultCooling = 0.92
	// DefaultAnnealMoves is the number of proposals per temperature step.
	DefaultAnnealMoves = 24
)

// Options tunes a solve. The zero value is a sensible deterministic
// default (seed 0).
type Options struct {
	// Seed drives every random choice; identical seeds reproduce
	// identical selections byte for byte.
	Seed int64
	// MaxEvals caps exact Evaluator calls across the whole solve —
	// every restart, climb and annealing pass shares the budget (cached
	// re-visits are free). 0 selects DefaultMaxEvals; negative is
	// rejected.
	MaxEvals int
	// Starts are explicit warm-start subsets (points must be candidate
	// points; unknown points are ignored).
	Starts [][]lattice.Point
	// Ctx, when non-nil, bounds the solve by wall clock: once Ctx is
	// cancelled or past its deadline the delta-probe loop stops at the
	// next move and the solver returns its best incumbent so far, marked
	// Degraded. Starts (including caller warm starts) are always priced
	// before the first climb, so a degraded result is never worse than
	// the best warm start. Nil means no deadline — and, because only a
	// deadline can interrupt the pipeline mid-flight, nil also means the
	// result is a pure function of inputs and seed.
	Ctx context.Context
	// Engine optionally supplies a pre-built incremental evaluation
	// engine pinned to exactly this (evaluator, candidate set) — the
	// structure-sharing hook of the comparison kernel
	// (optimizer.KernelSession.Engine). When nil, a fresh engine is built
	// per solve, re-deriving the lattice answering lists from scratch.
	// Search state never leaks through a shared engine: every solve
	// re-pins its starting subsets via Reset, so results are identical
	// with and without it.
	Engine *optimizer.IncrementalEvaluator
}

func (o Options) withDefaults() (Options, error) {
	if o.MaxEvals < 0 {
		return o, fmt.Errorf("search: negative MaxEvals %d", o.MaxEvals)
	}
	if o.MaxEvals == 0 {
		o.MaxEvals = DefaultMaxEvals
	}
	return o, nil
}

// errEvalBudget signals the evaluation budget ran dry; solvers treat it
// as "stop and keep the best found", never as a failure.
var errEvalBudget = errors.New("search: evaluation budget exhausted")

// errDeadline signals Options.Ctx expired mid-solve. Like errEvalBudget
// it means "stop and keep the best found", but unlike budget exhaustion
// it is timing-dependent, so it additionally marks the selection
// Degraded.
var errDeadline = errors.New("search: solve deadline reached")

// stopped reports whether err is one of the cooperative-stop sentinels
// (budget dry or deadline reached) — the "keep the incumbent" cases, as
// opposed to real failures.
func stopped(err error) bool {
	return errors.Is(err, errEvalBudget) || errors.Is(err, errDeadline)
}

// eval is one exactly-priced subset under the current objective: its
// cached price and the objective's score and violation of it.
type eval struct {
	c     *cachedEval
	score float64
	viol  float64
}

// better reports whether a strictly beats b: feasibility first, then
// violation magnitude, then score. Ties are never "better", so climbers
// require strict improvement and terminate.
func better(a, b eval) bool {
	aFeas, bFeas := a.viol == 0, b.viol == 0
	if aFeas != bFeas {
		return aFeas
	}
	if !aFeas && a.viol != b.viol {
		return a.viol < b.viol
	}
	return a.score < b.score
}

// cachedEval memoizes the exact evaluator output for one subset; the
// objective-dependent score/violation are recomputed per objective so a
// pareto sweep can share one cache across every α.
type cachedEval struct {
	t    time.Duration
	bill costmodel.Bill
}

// evalCache memoizes priced subsets in one flat open-addressed table
// keyed by the selection words, whatever the pool width. A solver prices
// at most min(MaxEvals, 2ⁿ) distinct subsets — every put follows a unit
// of evaluation budget, and n candidates have 2ⁿ subsets — so the table
// is sized for that once and never grows: 512 slots for an 8-candidate
// request, 8,192 for the default budget on a large pool. Keys and values
// sit densely in insertion order; a slot holds its entry's index + 1.
type evalCache struct {
	nwords int
	slots  []uint32     // power-of-two length, 0 = empty
	keys   []uint64     // nwords per entry
	vals   []cachedEval // one per entry
	key    []uint64     // scratch: the probed subset with its flips applied
}

func newEvalCache(n, maxEvals int) *evalCache {
	entries := maxEvals
	if n < 31 && 1<<n < entries {
		entries = 1 << n
	}
	slots := 2 // a third of the slots always stay empty, so every probe ends
	for slots < entries+entries/2 {
		slots <<= 1
	}
	nwords := (n + 63) / 64
	return &evalCache{
		nwords: nwords,
		slots:  make([]uint32, slots),
		keys:   make([]uint64, 0, entries*nwords),
		vals:   make([]cachedEval, 0, entries),
		key:    make([]uint64, nwords),
	}
}

func (c *evalCache) len() int { return len(c.vals) }

// find loads words with candidates flip1/flip2 (-1 = none) toggled into
// c.key and returns the slot holding that subset, or the empty slot
// where it belongs.
//
//mvlint:hotpath
func (c *evalCache) find(words []uint64, flip1, flip2 int) int {
	copy(c.key, words)
	if flip1 >= 0 {
		c.key[flip1>>6] ^= 1 << (uint(flip1) & 63)
	}
	if flip2 >= 0 {
		c.key[flip2>>6] ^= 1 << (uint(flip2) & 63)
	}
	var h uint64
	for _, w := range c.key { // splitmix64's finalizer, chained across words
		h ^= w
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	mask := len(c.slots) - 1
	slot := int(h) & mask
	for e := c.slots[slot]; e != 0; e = c.slots[slot] {
		if at := int(e-1) * c.nwords; slices.Equal(c.keys[at:at+c.nwords], c.key) {
			break
		}
		slot = (slot + 1) & mask
	}
	return slot
}

// at returns the entry in slot, or nil when the slot is empty.
//
//mvlint:hotpath
func (c *evalCache) at(slot int) *cachedEval {
	if e := c.slots[slot]; e != 0 {
		return &c.vals[e-1]
	}
	return nil
}

// insert stores ce in the empty slot the last find returned, under the
// key that find loaded — a miss is hashed once — and returns the entry.
//
//mvlint:hotpath
func (c *evalCache) insert(slot int, ce cachedEval) *cachedEval {
	c.keys = append(c.keys, c.key...)
	c.vals = append(c.vals, ce)
	c.slots[slot] = uint32(len(c.vals))
	return &c.vals[len(c.vals)-1]
}

// solver carries one search session: the pinned incremental evaluation
// engine, the candidate pool, the active objective, the shared
// evaluation cache and the PRNG. The engine holds the "current" subset
// (inside a swap row, the current subset less the row's candidate);
// neighbors are priced read-only from its aggregates, so a probe costs
// O(affected queries) instead of a full workload × selection
// recomputation, and the engine moves only when the search does.
type solver struct {
	inc      *optimizer.IncrementalEvaluator
	cands    []views.Candidate
	obj      Objective
	opts     Options
	rng      *rand.Rand
	cache    *evalCache
	evals    int
	maxEvals int
	// done is Options.Ctx's done channel, nil when no deadline was set
	// (see lookup).
	done <-chan struct{}
	// degraded latches once the deadline interrupts the pipeline; it
	// flows onto every selection this solver emits from then on.
	degraded bool
	// selIdx and unsIdx list the selected and unselected candidates of
	// the search's current state, ascending; pin and applyMove keep them
	// current for the swap rows and move proposals that read them.
	selIdx []int
	unsIdx []int
}

func newSolver(ev *optimizer.Evaluator, cands []views.Candidate, obj Objective, opts Options) (*solver, error) {
	if ev == nil {
		return nil, fmt.Errorf("search: nil evaluator")
	}
	if obj.Score == nil {
		return nil, fmt.Errorf("search: objective %q has no score", obj.Name)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	inc := opts.Engine
	if inc != nil {
		if !inc.PinnedTo(ev, cands) {
			return nil, fmt.Errorf("search: Options.Engine is pinned to a different evaluator or candidate set")
		}
	} else {
		inc, err = optimizer.NewIncrementalEvaluator(ev, cands)
		if err != nil {
			return nil, err
		}
	}
	n := len(cands)
	s := &solver{
		inc:      inc,
		cands:    cands,
		obj:      obj,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		cache:    newEvalCache(n, opts.MaxEvals),
		maxEvals: opts.MaxEvals,
		selIdx:   make([]int, 0, n),
		unsIdx:   make([]int, 0, n),
	}
	if opts.Ctx != nil {
		s.done = opts.Ctx.Done()
	}
	return s, nil
}

// score applies the active objective to a cached exact evaluation.
func (s *solver) score(c *cachedEval) eval {
	e := eval{c: c, score: s.obj.Score(c.t, c.bill)}
	if s.obj.Violation != nil {
		e.viol = s.obj.Violation(c.t, c.bill)
	}
	return e
}

// scoreState prices the engine's current subset, via the cache. Cache
// hits are free; misses consume one unit of the evaluation budget and
// re-bill from the engine's running aggregates. When the budget is
// exhausted it returns errEvalBudget.
//
//mvlint:hotpath
func (s *solver) scoreState() (eval, error) {
	slot := s.cache.find(s.inc.Words(), -1, -1)
	if c := s.cache.at(slot); c != nil {
		return s.score(c), nil
	}
	if s.evals >= s.maxEvals {
		return eval{}, errEvalBudget
	}
	s.evals++
	t, bill, err := s.inc.Score()
	if err != nil {
		return eval{}, err
	}
	return s.score(s.cache.insert(slot, cachedEval{t: t, bill: bill})), nil
}

// pin re-pins the engine to an arbitrary subset — the full re-pricing
// path, taken at restarts only, never per move.
func (s *solver) pin(sel []bool) error {
	s.partition(sel)
	return s.inc.Reset(sel)
}

// partition rebuilds the two ascending index lists from a state bitmap.
//
//mvlint:hotpath
func (s *solver) partition(sel []bool) {
	s.selIdx, s.unsIdx = s.selIdx[:0], s.unsIdx[:0]
	for i, on := range sel {
		if on {
			s.selIdx = append(s.selIdx, i)
		} else {
			s.unsIdx = append(s.unsIdx, i)
		}
	}
}

// evaluate pins an arbitrary subset and prices it.
func (s *solver) evaluate(sel []bool) (eval, error) {
	if err := s.pin(sel); err != nil {
		return eval{}, err
	}
	return s.scoreState()
}

// flip moves the engine by a flip of a (b < 0) or a swap of selected a
// for unselected b: the engine side of applyMove(sel, a, b).
//
//mvlint:hotpath
func (s *solver) flip(a, b int) {
	for _, i := range [2]int{a, b} {
		if i < 0 {
			continue
		}
		if s.inc.Selected(i) {
			s.inc.Drop(i)
		} else {
			s.inc.Add(i)
		}
	}
}

// lookup is the front half of every probe of the engine's neighbor with
// a and b flipped (-1 = none): the deadline gate, then the cache. A hit
// is returned scored (e.c != nil); a miss returns the slot its entry
// belongs in, or errEvalBudget when no evaluation is left to price it.
//
//mvlint:hotpath
func (s *solver) lookup(a, b int) (slot int, e eval, err error) {
	select {
	case <-s.done:
		// The deadline gate sits on move probes only — never on start
		// pricing (scoreState via evaluate) — so warm starts are always
		// priced and a degraded incumbent can never lose to its own
		// warm start. A nil done channel (no deadline) blocks forever
		// and falls through to default.
		return 0, eval{}, errDeadline
	default:
	}
	slot = s.cache.find(s.inc.Words(), a, b)
	if c := s.cache.at(slot); c != nil {
		return slot, s.score(c), nil
	}
	if s.evals >= s.maxEvals {
		return slot, eval{}, errEvalBudget
	}
	return slot, eval{}, nil
}

// price is the back half of a miss: one evaluation charged, the engine's
// neighbor priced read-only (IncrementalEvaluator.Probe of a flip of a,
// or of a swap of selected a for unselected b), and the result stored in
// the slot lookup returned.
//
//mvlint:hotpath
func (s *solver) price(slot, a, b int) (eval, error) {
	s.evals++
	t, bill, err := s.inc.Probe(a, b)
	if err != nil {
		return eval{}, err
	}
	return s.score(s.cache.insert(slot, cachedEval{t: t, bill: bill})), nil
}

// probeMove prices the neighbor reached by a flip of i (j < 0) or a swap
// dropping selected i for unselected j. Its key is an XOR on the
// selection words and its price is read off the engine's aggregates, so
// the engine does not move, hit or miss.
//
//mvlint:hotpath
func (s *solver) probeMove(i, j int) (eval, error) {
	slot, e, err := s.lookup(i, j)
	if e.c != nil || err != nil {
		return e, err
	}
	return s.price(slot, i, j)
}

// probeSwapRow prices every swap of selected i for an unselected j, in
// ascending j — the states, order, deadline gate, budget accounting and
// cache keys of probeMove(i, j) — and returns the first j that strictly
// beats best and every earlier j, or -1. The row's first uncached swap
// takes i out of the engine, so it and every later one is priced as a
// flip of j alone (the engine's state is a pure function of the
// selected set, so the price is the same). However the row ends — last
// j, budget, deadline, pricing error — i is back in the engine on
// return, and the best swap so far is reported beside the error.
//
//mvlint:hotpath
func (s *solver) probeSwapRow(i int, best eval) (bestJ int, _ eval, err error) {
	bestJ = -1
	in := i // i while it is still in the engine, then -1
	for _, j := range s.unsIdx {
		var slot int
		var e eval
		if slot, e, err = s.lookup(in, j); err != nil {
			break
		}
		if e.c == nil {
			if in >= 0 {
				// The engine's words lose bit i and the key loaded by
				// lookup stays the same, so slot is still where it goes.
				s.inc.Drop(i)
				in = -1
			}
			if e, err = s.price(slot, j, -1); err != nil {
				break
			}
		}
		if better(e, best) {
			bestJ, best = j, e
		}
	}
	if in < 0 {
		s.inc.Add(i)
	}
	return bestJ, best, err
}

// applyMove records a flip of i (j < 0) or a swap i→out, j→in in the
// state bitmap and the index lists.
//
//mvlint:hotpath
func (s *solver) applyMove(sel []bool, i, j int) {
	s.toggle(sel, i)
	if j >= 0 {
		s.toggle(sel, j)
	}
}

// toggle flips candidate i in the state bitmap and moves it from one
// ascending index list to the other.
//
//mvlint:hotpath
func (s *solver) toggle(sel []bool, i int) {
	from, to := &s.unsIdx, &s.selIdx
	if sel[i] {
		from, to = to, from
	}
	sel[i] = !sel[i]
	at, _ := slices.BinarySearch(*from, i)
	*from = slices.Delete(*from, at, at+1)
	at, _ = slices.BinarySearch(*to, i)
	*to = slices.Insert(*to, at, i)
}

// selection assembles the final optimizer.Selection for a state.
func (s *solver) selection(sel []bool, e eval) optimizer.Selection {
	pts := make([]lattice.Point, 0, len(sel))
	for i, on := range sel {
		if on {
			pts = append(pts, s.cands[i].Point.Clone())
		}
	}
	return optimizer.Selection{
		Points:   pts,
		Time:     e.c.t,
		Bill:     e.c.bill,
		Feasible: e.viol == 0,
		Strategy: s.obj.Name + "-search",
		Degraded: s.degraded,
	}
}

// starts builds the starting subsets for the restart wrapper:
// caller-provided warm starts first (so a tight evaluation budget prices
// them before anything else — a warm-started solve is then never worse
// than its warm start), then the empty set, greedy benefit-order
// prefixes (candidates arrive in HRU selection order, so prefixes are
// natural warm starts), then DefaultRestarts random subsets with inclusion
// probability drawn per restart.
func (s *solver) starts() [][]bool {
	n := len(s.cands)
	var out [][]bool
	add := func(sel []bool) { out = append(out, sel) }
	if len(s.opts.Starts) > 0 {
		// Candidate index + 1 by dense lattice id; a point the lattice
		// does not know, or that is no candidate's, selects nothing.
		lat := s.inc.Evaluator().Est.Lat
		index := make([]int32, lat.NumNodes())
		for i, c := range s.cands {
			if id, err := lat.ID(c.Point); err == nil {
				index[id] = int32(i) + 1
			}
		}
		for _, pts := range s.opts.Starts {
			sel := make([]bool, n)
			for _, p := range pts {
				if id, err := lat.ID(p); err == nil && index[id] > 0 {
					sel[index[id]-1] = true
				}
			}
			add(sel)
		}
	}
	add(make([]bool, n)) // empty: the no-view baseline
	// Prefixes of the candidate order (HRU picks best-first): half and full.
	if n > 1 {
		half := make([]bool, n)
		for i := 0; i < (n+1)/2; i++ {
			half[i] = true
		}
		add(half)
	}
	if n > 0 {
		full := make([]bool, n)
		for i := range full {
			full[i] = true
		}
		add(full)
	}
	for r := 0; r < DefaultRestarts; r++ {
		// The float64 conversion rounds the product before the add, so no port
		// fuses the two into one multiply-add (scripts/nofma.sh).
		p := 0.15 + float64(0.7*s.rng.Float64())
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = s.rng.Float64() < p
		}
		add(sel)
	}
	return out
}

// Solve runs the full metaheuristic pipeline — multi-start steepest
// hill climbing, optionally interleaved with simulated annealing — and
// returns the best exactly-priced selection found within the evaluation
// budget. Identical inputs and seeds return identical selections.
func Solve(ev *optimizer.Evaluator, cands []views.Candidate, obj Objective, opts Options) (optimizer.Selection, error) {
	s, err := newSolver(ev, cands, obj, opts)
	if err != nil {
		return optimizer.Selection{}, err
	}
	sel, _, err := s.solve(nil)
	return sel, err
}

// solve runs the pipeline on the solver's current objective and flushes
// the solver telemetry once per solve: the inner loops count evaluations
// and moves in plain solver-local fields, and only this wrapper pays the
// (sharded, contention-free) atomic adds — so a million-move anneal
// costs exactly two counter flushes.
func (s *solver) solve(extraStart []bool) (optimizer.Selection, []bool, error) {
	evals0 := s.evals
	moves0 := s.inc.Moves()
	sel, best, err := s.run(extraStart)
	obs.SearchEvals.Add(int64(s.evals - evals0))
	obs.IncrementalMoves.Add(s.inc.Moves() - moves0)
	return sel, best, err
}

// run is the pipeline body. extraStart, when non-nil, is tried as an
// additional warm start (used by the pareto sweep to chain α steps). It
// returns the best selection and its bitmap.
func (s *solver) run(extraStart []bool) (optimizer.Selection, []bool, error) {
	n := len(s.cands)
	bestSel := make([]bool, n)
	bestEval, err := s.evaluate(bestSel)
	if err != nil {
		// Even the empty set must price; a budget of zero evals is the
		// only way this is errEvalBudget, and then there is no answer.
		return optimizer.Selection{}, nil, err
	}
	starts := s.starts()
	if extraStart != nil {
		// Warm starts go first so a tight budget prices them before
		// anything else (see starts()).
		starts = append([][]bool{append([]bool(nil), extraStart...)}, starts...)
	}
	// Price every start before any climbing or annealing can drain the
	// budget: a warm start must never be lost to budget exhaustion in an
	// earlier start's pipeline (re-scoring a cached subset is free, so
	// this also lets a dry-budget sweep still return the best of its
	// cached warm starts).
	for _, start := range starts {
		e, err := s.evaluate(start)
		if err != nil {
			if errors.Is(err, errEvalBudget) {
				continue // unpriceable now; cached starts still scored above
			}
			return optimizer.Selection{}, nil, err
		}
		if better(e, bestEval) {
			copy(bestSel, start)
			bestEval = e
		}
	}
	// Per start: climb, diversify by annealing, then polish the annealed
	// state with a second climb (annealing ends wherever the temperature
	// died; a climb from there is nearly free thanks to the cache).
	stages := []func([]bool, eval) ([]bool, eval, error){
		func(cur []bool, _ eval) ([]bool, eval, error) { return s.hillClimb(cur) },
		func(cur []bool, e eval) ([]bool, eval, error) { return s.anneal(cur, e) },
		func(cur []bool, _ eval) ([]bool, eval, error) { return s.hillClimb(cur) },
	}
	dry := false
	for _, start := range starts {
		cur, curEval := start, eval{}
		for _, stage := range stages {
			var err error
			cur, curEval, err = stage(cur, curEval)
			if err != nil && !stopped(err) {
				return optimizer.Selection{}, nil, err
			}
			if better(curEval, bestEval) {
				copy(bestSel, cur)
				bestEval = curEval
			}
			if stopped(err) {
				if errors.Is(err, errDeadline) {
					s.degraded = true
				}
				dry = true
				break
			}
		}
		if dry {
			break
		}
	}
	return s.selection(bestSel, bestEval), bestSel, nil
}

// Stats instruments a solve — exposed for tests and benchmarks via
// SolveStats.
type Stats struct {
	// Evals is the number of exact evaluator calls consumed.
	Evals int
	// CachedStates is the number of distinct subsets priced.
	CachedStates int
}

// SolveStats is Solve plus instrumentation: it also reports how much of
// the evaluation budget was consumed.
func SolveStats(ev *optimizer.Evaluator, cands []views.Candidate, obj Objective, opts Options) (optimizer.Selection, Stats, error) {
	s, err := newSolver(ev, cands, obj, opts)
	if err != nil {
		return optimizer.Selection{}, Stats{}, err
	}
	sel, _, err := s.solve(nil)
	return sel, Stats{Evals: s.evals, CachedStates: s.cache.len()}, err
}

// SolveMV1 solves scenario MV1 (fastest workload within the budget) by
// metaheuristic search against the exact evaluator.
func SolveMV1(ev *optimizer.Evaluator, cands []views.Candidate, budget money.Money, opts Options) (optimizer.Selection, error) {
	return Solve(ev, cands, BudgetObjective(budget), opts)
}

// SolveMV2 solves scenario MV2 (cheapest bill within the time limit).
func SolveMV2(ev *optimizer.Evaluator, cands []views.Candidate, limit time.Duration, opts Options) (optimizer.Selection, error) {
	return Solve(ev, cands, DeadlineObjective(limit), opts)
}

// SolveMV3 solves scenario MV3 (weighted time/cost tradeoff). The
// normalized mode prices the no-view baseline first (one extra exact
// evaluation, cached and shared with the search).
func SolveMV3(ev *optimizer.Evaluator, cands []views.Candidate, alpha float64, mode optimizer.TradeoffMode, opts Options) (optimizer.Selection, error) {
	if alpha < 0 || alpha > 1 {
		return optimizer.Selection{}, fmt.Errorf("search: alpha %g out of [0,1]", alpha)
	}
	var baseT time.Duration
	var baseBill costmodel.Bill
	if mode == optimizer.NormalizedTradeoff {
		var err error
		baseT, baseBill, err = ev.Evaluate(nil)
		if err != nil {
			return optimizer.Selection{}, err
		}
	}
	return Solve(ev, cands, TradeoffObjective(alpha, mode, baseT, baseBill), opts)
}
