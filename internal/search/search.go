// Package search provides deterministic, seedable metaheuristic solvers
// for the view-selection problem on large cuboid lattices.
//
// The paper's knapsack formulation (Section 5.2) linearizes each view's
// effect on the bill and the workload time. The approximation is not
// free even on the 16-node sales lattice — the repo benchmark's oracle
// measures the knapsack's answers 8.69–15.84% off the exhaustive optimum
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
	"math/bits"
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

// Objective is optimizer.Scenario under the name the repo benchmark
// still uses; it goes with ROADMAP item 3, as do the three below.
type Objective = optimizer.Scenario

// BudgetObjective is optimizer.Budget (removed with ROADMAP item 3).
func BudgetObjective(budget money.Money) Objective { return optimizer.Budget(budget) }

// DeadlineObjective is optimizer.Deadline (removed with ROADMAP item 3).
func DeadlineObjective(limit time.Duration) Objective { return optimizer.Deadline(limit) }

// TradeoffObjective is optimizer.Tradeoff, an α out of range giving the
// zero scenario that Solve refuses (removed with ROADMAP item 3).
func TradeoffObjective(alpha float64, mode optimizer.TradeoffMode, baseT time.Duration, baseBill costmodel.Bill) Objective {
	sc, _ := optimizer.Tradeoff(alpha, mode, baseT, baseBill)
	return sc
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

// eval is one exactly-priced subset under the current scenario: its
// cached price and the scenario's violation of it.
type eval struct {
	c    *cachedEval
	viol float64
}

// better reports whether a strictly beats b: between two infeasible
// states the smaller violation, to pull the search back into the feasible
// region, else the scenario's order. Ties are never "better", so climbers
// require strict improvement and terminate.
func (s *solver) better(a, b eval) bool {
	if a.viol > 0 && b.viol > 0 && a.viol != b.viol {
		return a.viol < b.viol
	}
	return s.obj.Compare(a.c.o, b.c.o) < 0
}

// cachedEval memoizes the exact evaluator output for one subset: the
// outcome a scenario ranks, and the bill. Nothing scenario-dependent is
// kept, so a pareto sweep can share one cache across every α.
type cachedEval struct {
	o    optimizer.Outcome
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
// engine, the candidate pool, the active scenario, the shared
// evaluation cache and the PRNG. The engine holds the "current" subset
// (inside a swap row, the current subset less the row's candidate);
// neighbors are priced by IncrementalEvaluator.Probe, which leaves the
// engine's state as it found it, so a probe costs O(affected queries)
// instead of a full workload × selection recomputation, and the engine
// moves only when the search does.
type solver struct {
	inc      *optimizer.IncrementalEvaluator
	cands    []views.Candidate
	obj      optimizer.Scenario
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
	// state is the search's current subset in the engine's word layout
	// (candidate i at bit i%64 of word i/64, bits past n clear); pin and
	// applyMove keep it current for the swap rows and move proposals that
	// walk its set and clear bits.
	state []uint64
}

func newSolver(ev *optimizer.Evaluator, cands []views.Candidate, sc optimizer.Scenario, opts Options) (*solver, error) {
	if ev == nil {
		return nil, fmt.Errorf("search: nil evaluator")
	}
	if sc.Name() == "" {
		return nil, fmt.Errorf("search: no scenario to solve")
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
		sess, err := optimizer.NewSession(ev, cands)
		if err != nil {
			return nil, err
		}
		inc = sess.Engine()
	}
	n := len(cands)
	s := &solver{
		inc:      inc,
		cands:    cands,
		obj:      sc,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		cache:    newEvalCache(n, opts.MaxEvals),
		maxEvals: opts.MaxEvals,
		state:    make([]uint64, (n+63)/64),
	}
	if opts.Ctx != nil {
		s.done = opts.Ctx.Done()
	}
	return s, nil
}

// score applies the active scenario to a cached exact evaluation.
func (s *solver) score(c *cachedEval) eval {
	return eval{c: c, viol: s.obj.Violation(c.o)}
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
	return s.score(s.cache.insert(slot, cachedEval{o: optimizer.Outcome{Time: t, Cost: bill.Total()}, bill: bill})), nil
}

// pin re-pins the engine to an arbitrary subset — the full re-pricing
// path, taken at restarts only, never per move.
func (s *solver) pin(sel []bool) error {
	clear(s.state)
	for i, on := range sel {
		if on {
			s.state[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return s.inc.Reset(sel)
}

// unselected returns word w of the current state's complement: the
// unselected candidates' bits, those past n masked off.
//
//mvlint:hotpath
func (s *solver) unselected(w int) uint64 {
	free := ^s.state[w]
	if rest := len(s.cands) - w<<6; rest < 64 {
		free &= 1<<uint(rest) - 1
	}
	return free
}

// selectedCount returns the number of candidates in the current state.
//
//mvlint:hotpath
func (s *solver) selectedCount() int {
	c := 0
	for _, w := range s.state {
		c += bits.OnesCount64(w)
	}
	return c
}

// nth returns the r-th (from 0, ascending) selected candidate of the
// current state, or the r-th unselected one when free is set.
//
//mvlint:hotpath
func (s *solver) nth(free bool, r int) int {
	for w, x := range s.state {
		if free {
			x = s.unselected(w)
		}
		if c := bits.OnesCount64(x); r >= c {
			r -= c
			continue
		}
		for ; r > 0; r-- {
			x &= x - 1
		}
		return w<<6 | bits.TrailingZeros64(x)
	}
	return -1
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
	// The deadline gate sits on move probes only — never on start pricing
	// (scoreState via evaluate) — so warm starts are always priced and a
	// degraded incumbent can never lose to its own warm start. With no
	// deadline there is no channel to poll, and the select is skipped.
	if s.done != nil {
		select {
		case <-s.done:
			return 0, eval{}, errDeadline
		default:
		}
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
// neighbor priced (IncrementalEvaluator.Probe of a flip of a,
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
	return s.score(s.cache.insert(slot, cachedEval{o: optimizer.Outcome{Time: t, Cost: bill.Total()}, bill: bill})), nil
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
row:
	for w := range s.state {
		for free := s.unselected(w); free != 0; free &= free - 1 {
			j := w<<6 | bits.TrailingZeros64(free)
			var slot int
			var e eval
			if slot, e, err = s.lookup(in, j); err != nil {
				break row
			}
			if e.c == nil {
				if in >= 0 {
					// The engine's words lose bit i and the key loaded by
					// lookup stays the same, so slot is still where it goes.
					s.inc.Drop(i)
					in = -1
				}
				if e, err = s.price(slot, j, -1); err != nil {
					break row
				}
			}
			if s.better(e, best) {
				bestJ, best = j, e
			}
		}
	}
	if in < 0 {
		s.inc.Add(i)
	}
	return bestJ, best, err
}

// applyMove records a flip of i (j < 0) or a swap i→out, j→in in the
// stage's bitmap and the solver's state words.
//
//mvlint:hotpath
func (s *solver) applyMove(sel []bool, i, j int) {
	for _, k := range [2]int{i, j} {
		if k >= 0 {
			sel[k] = !sel[k]
			s.state[k>>6] ^= 1 << (uint(k) & 63)
		}
	}
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
		Time:     e.c.o.Time,
		Bill:     e.c.bill,
		Feasible: s.obj.Met(e.c.o.Time, e.c.bill),
		Strategy: s.obj.Name() + "-search",
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
func Solve(ev *optimizer.Evaluator, cands []views.Candidate, sc optimizer.Scenario, opts Options) (optimizer.Selection, error) {
	sel, _, err := SolveStats(ev, cands, sc, opts)
	return sel, err
}

// solve runs the pipeline on the solver's current scenario and flushes
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
		if s.better(e, bestEval) {
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
			if s.better(curEval, bestEval) {
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
func SolveStats(ev *optimizer.Evaluator, cands []views.Candidate, sc optimizer.Scenario, opts Options) (optimizer.Selection, Stats, error) {
	s, err := newSolver(ev, cands, sc, opts)
	if err != nil {
		return optimizer.Selection{}, Stats{}, err
	}
	sel, _, err := s.solve(nil)
	return sel, Stats{Evals: s.evals, CachedStates: s.cache.len()}, err
}
