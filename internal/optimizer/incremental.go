package optimizer

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/obs"
	"vmcloud/internal/reuse"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
)

// IncrementalEvaluator prices candidate subsets by delta evaluation: the
// candidate set and workload are pinned once (in a ComparisonKernel), and
// every Add/Drop move updates running aggregates in O(affected queries)
// instead of the Evaluator's O(|workload| × |selection|) full
// recomputation. Score() rebuilds the exact tiered bill from the
// aggregates through the binding's compiled Plan.Bill (compiledBill), so
// an IncrementalEvaluator state is bit-equal — time, bill, size — to
// Evaluator.Evaluate of the same subset (the property tests in
// incremental_test.go and bill_test.go enforce this on random lattices,
// move sequences and tariffs).
//
// Invariants maintained across moves:
//
//   - assigned[q] is the position in query q's answering list
//     (ansCand[qOff[q]:qOff[q+1]]) of the view that answers q under
//     cheapest-answering routing, qOff[q+1] standing for the base table.
//     The list is sorted by the Evaluator's exact tie rule — fewest rows
//     wins, ties keep the lowest candidate index — and holds only views
//     with strictly fewer rows than the base, so the source is the first
//     selected entry, and a candidate at position pos beats it exactly
//     when pos < assigned[q].
//   - curTerm[q] = freq_q × TimeForJob(size of q's source), and
//     proc = Σ_q curTerm[q]                               (Formula 9)
//   - sizeSum/matSum = Σ over selected views               (Formula 7, §4.3)
//   - maintSum matches the estimator's maintenance policy: immediate sums
//     Formula 11 over selected views; deferred caps each view's refresh
//     count at the executions it serves, tracked per candidate in served
//     (the kernel's pool names each point once).
//
// Every field is a function of the selected subset alone — integer
// aggregates, routing keyed by answering-list position — so the moves
// that reach a subset do not matter, and a move followed by its reverse
// restores the state exactly.
//
// This engine is the one served subset pricer: a search prices its
// moves and probes on it, and a KernelSession prices each Section 5 pick
// by moving its own engine onto the pick, one move per candidate that
// differs (moveTo). Full re-pricing runs in exactly two places: pinning
// an arbitrary subset from empty (Reset at search restarts) and the Bill
// arithmetic in Score and Probe (tier boundaries and billing rounding
// are global, so the exact bill is always recomputed from the
// aggregates — never linearized). Probe prices a neighbor — one flip or
// one swap away.
// Under immediate maintenance it reads the aggregates without writing
// them; under deferred maintenance it moves onto the neighbor and back.
//
// The structural half (answering lists, candidate scalars) lives
// in the shared ComparisonKernel; this type adds the tariff-dependent
// time scalars of one binding plus the mutable selection state, so one
// kernel can serve many evaluators — one per tariff — without re-walking
// the lattice.
type IncrementalEvaluator struct {
	ev *Evaluator
	k  *ComparisonKernel
	sessionScalars

	// Mutable state.
	selected []bool
	words    []uint64 // selection bitmap packed 64 per word (Words())
	assigned []int32  // per query: the source's answering-list position (qOff[q+1] = base)
	curTerm  []time.Duration
	served   []int64 // per candidate: monthly executions routed to it (deferred maintenance)

	// Running aggregates.
	proc     time.Duration
	maintSum time.Duration
	matSum   time.Duration
	sizeSum  units.DataSize

	// billing is the binding's Plan.Bill, compiled: Score and Probe
	// price their aggregates through it.
	billing compiledBill

	// moves counts Add/Drop calls over the engine's lifetime. A plain
	// field, not an atomic or a telemetry counter: the solvers own the
	// engine exclusively during a solve, and the search wrapper flushes
	// the delta to obs.IncrementalMoves once per solve, so the inner
	// loop's per-move cost stays a single increment.
	moves int64

	// taken is Probe scratch, all false between probes: the queries a
	// swap's incoming candidate takes from the outgoing one.
	taken []bool

	// The slabs the duration and bool arrays are cut from, kept whole
	// for the engine's next binding.
	durations []time.Duration
	bools     []bool

	// The session's pricing, kept apart from the fields a search's moves
	// and probes touch: want is moveTo's scratch, the target subset
	// packed as words; priced is the subset pricePick last priced, at
	// pricedT and pricedBill (valid once pricedOK).
	want       []uint64
	priced     []uint64
	pricedT    time.Duration
	pricedBill costmodel.Bill
	pricedOK   bool
}

// bindInto binds the kernel to one tariff in an engine the caller
// allocated: the kernel's pinned structure plus this evaluator's time
// scalars. The evaluator must be wired over the kernel's lattice. A
// binding is per cell of a comparison grid, so its allocation count
// is part of the per-tariff cost: every duration, int64, int32 and bool
// array comes from one slab of its type, and an engine bound again
// cuts them from the slabs of its last binding.
func (k *ComparisonKernel) bindInto(inc *IncrementalEvaluator, ev *Evaluator) error {
	if ev == nil || ev.Est == nil || ev.Est.Lat == nil {
		return fmt.Errorf("optimizer: incremental evaluator needs a wired evaluator")
	}
	if ev.Est.Lat != k.Lat {
		return fmt.Errorf("optimizer: evaluator lattice differs from the kernel's")
	}
	obs.KernelRebinds.Inc()
	n, nq := k.n, k.nq
	// curTerm, then bindScalars' arena.
	durations := reuse.Zeroed(inc.durations, nq+4*n+nq+len(k.ansCand))
	bools := reuse.Zeroed(inc.bools, n+nq)
	// words, want, then priced: words keeps the slab's capacity for the
	// next binding, and Words hands it out cut to its length.
	nw := (n + 63) / 64
	words := reuse.Zeroed(inc.words, 3*nw)
	*inc = IncrementalEvaluator{
		ev:             ev,
		k:              k,
		sessionScalars: k.bindScalars(ev, durations[nq:]),
		selected:       bools[:n:n],
		words:          words[:nw],
		want:           words[nw : 2*nw : 2*nw],
		priced:         words[2*nw:],
		assigned:       reuse.Zeroed(inc.assigned, nq),
		curTerm:        durations[:nq:nq],
		served:         reuse.Zeroed(inc.served, n),
		taken:          bools[n:],
		durations:      durations,
		bools:          bools,
	}
	inc.billing = compileBill(&ev.Base)
	inc.resetEmpty()
	return nil
}

// Evaluator returns the exact evaluator this engine is bound to.
func (inc *IncrementalEvaluator) Evaluator() *Evaluator { return inc.ev }

// Moves returns the lifetime Add/Drop move count. The search wrapper
// diffs it around a solve to flush the delta into obs.IncrementalMoves;
// a KernelSession's own pricing moves are not counted.
func (inc *IncrementalEvaluator) Moves() int64 { return inc.moves }

// PinnedTo reports whether this engine prices exactly the given
// evaluator and candidate set — the guard callers handing a pre-built
// engine to a solver (search.Options.Engine) are checked against, so a
// same-length but different candidate list cannot be silently priced as
// another one.
func (inc *IncrementalEvaluator) PinnedTo(ev *Evaluator, cands []views.Candidate) bool {
	if inc.ev != ev || len(cands) != inc.k.n {
		return false
	}
	for i, c := range cands {
		if c.Rows != inc.k.Cands[i].Rows || c.Size != inc.k.Cands[i].Size || !c.Point.Equal(inc.k.Cands[i].Point) {
			return false
		}
	}
	return true
}

// Len returns the pinned candidate count.
func (inc *IncrementalEvaluator) Len() int { return inc.k.n }

// Selected reports whether candidate i is in the current subset.
func (inc *IncrementalEvaluator) Selected(i int) bool { return inc.selected[i] }

// Words exposes the packed selection bitmap (64 candidates per uint64,
// candidate i at bit i%64 of word i/64). The slice is live — callers
// must copy it before mutating the evaluator further.
func (inc *IncrementalEvaluator) Words() []uint64 { return inc.words[:len(inc.words):len(inc.words)] }

// resetEmpty pins the empty subset: every query runs on the base table.
func (inc *IncrementalEvaluator) resetEmpty() {
	for i := range inc.selected {
		inc.selected[i] = false
	}
	for w := range inc.words {
		inc.words[w] = 0
	}
	clear(inc.served)
	inc.proc = 0
	for q := range inc.assigned {
		inc.assigned[q] = inc.k.qOff[q+1]
		inc.curTerm[q] = inc.qBase[q]
		inc.proc += inc.qBase[q]
	}
	inc.maintSum, inc.matSum, inc.sizeSum = 0, 0, 0
}

// Reset re-pins the evaluator to an arbitrary subset — the full
// re-pricing path (O(n + Σ answering-list lengths)), used when a search
// restarts from a new subset rather than stepping to a neighbor.
func (inc *IncrementalEvaluator) Reset(sel []bool) error {
	if len(sel) != inc.k.n {
		return fmt.Errorf("optimizer: reset with %d flags for %d candidates", len(sel), inc.k.n)
	}
	inc.resetEmpty()
	for i, on := range sel {
		if on {
			inc.Add(i)
		}
	}
	return nil
}

// moveTo moves the engine onto the candidate subset sel, which lists
// each pick once in any order, and returns the moves it made: one Drop
// or Add per candidate whose membership differs, in candidate order, and
// none when the engine already holds sel. The state is a function of
// the selected set alone, so it equals Reset's for the same subset.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) moveTo(sel []int32) int64 {
	want := inc.want
	clear(want)
	for _, ci := range sel {
		want[ci>>6] |= 1 << (uint32(ci) & 63)
	}
	moves := inc.moves
	for w, held := range inc.words {
		for diff := held ^ want[w]; diff != 0; diff &= diff - 1 {
			b := bits.TrailingZeros64(diff)
			if i := w<<6 | b; held&(1<<b) != 0 {
				inc.Drop(i)
			} else {
				inc.Add(i)
			}
		}
	}
	return inc.moves - moves
}

// pricePick moves the engine onto the subset sel (moveTo) and prices it
// as Score does, returning the moves it made. When the engine holds the
// subset pricePick last priced, the price is that one again: the state
// is a function of the selected set alone, and so is Score's answer.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) pricePick(sel []int32) (int64, time.Duration, costmodel.Bill, error) {
	moves := inc.moveTo(sel)
	if inc.pricedOK && slices.Equal(inc.words, inc.priced) {
		return moves, inc.pricedT, inc.pricedBill, nil
	}
	t, bill, err := inc.Score()
	if err == nil {
		copy(inc.priced, inc.words)
		inc.pricedT, inc.pricedBill, inc.pricedOK = t, bill, true
	}
	return moves, t, bill, err
}

// Price pins the engine to an arbitrary subset, as Reset does, and
// prices it exactly, as Score does. Its moves are not counted: a search
// ranks the subsets it walks by Probe's outcomes and prices here, once,
// the bill of the answer it returns, which is no step of its walk (as
// KernelSession.priceSel's moves are not).
func (inc *IncrementalEvaluator) Price(sel []bool) (time.Duration, costmodel.Bill, error) {
	moves := inc.moves
	err := inc.Reset(sel)
	inc.moves = moves
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	return inc.Score()
}

// Add materializes candidate i: aggregates grow by its scalars and only
// the queries i can answer are re-routed (they move to i exactly when i
// sits before their current source on their answering list, take).
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) Add(i int) {
	if inc.selected[i] {
		return
	}
	inc.moves++
	inc.selected[i] = true
	inc.words[i>>6] |= 1 << (uint(i) & 63)
	inc.sizeSum += inc.k.size[i]
	inc.matSum += inc.mat[i]
	if !inc.deferred {
		inc.maintSum += inc.maint[i]
	} else if inc.runs > 0 {
		// The served counts move first, off the sources take replaces.
		// An unselected candidate serves nothing, so i's capped refresh
		// bill starts at zero and grows with the queries it takes.
		pos := inc.k.cand2pos[i]
		for x, q32 := range inc.k.cand2q[i] {
			if at := inc.assigned[q32]; pos[x] < at {
				q := int(q32)
				if from := inc.source(q, at); from >= 0 {
					inc.adjustServed(int(from), -inc.k.qFreq[q])
				}
				inc.adjustServed(i, inc.k.qFreq[q])
			}
		}
	}
	inc.proc += inc.take(i)
}

// take routes to candidate i every query on whose answering list it sits
// before the source and returns the processing-time change. It is gain
// with the route written back: each query's position and term are
// stored whether they changed or not, so that the loop, like gain's, has
// no jump on the routing.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) take(i int) time.Duration {
	qs, assigned, ansTerm := inc.k.cand2q[i], inc.assigned, inc.ansTerm
	pos, curTerm := inc.k.cand2pos[i][:len(qs)], inc.curTerm[:len(assigned)]
	var d time.Duration
	for x, q := range qs {
		to, at := pos[x], assigned[q]
		cur, term := curTerm[q], ansTerm[to]
		if to >= at {
			to, term = at, cur
		}
		assigned[q], curTerm[q] = to, term
		d += term - cur
	}
	return d
}

// Drop unmaterializes candidate i: only queries currently assigned to it
// are re-routed, to their cheapest remaining selected source (or base).
// A query's source is the first selected entry of its answering list, so
// the search for the next one starts just after i.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) Drop(i int) {
	if !inc.selected[i] {
		return
	}
	inc.moves++
	inc.selected[i] = false
	inc.words[i>>6] &^= 1 << (uint(i) & 63)
	inc.sizeSum -= inc.k.size[i]
	inc.matSum -= inc.mat[i]
	if !inc.deferred {
		inc.maintSum -= inc.maint[i]
	} else if inc.runs > 0 {
		// Shed i's capped refresh bill before re-routing (the re-route
		// below no longer counts i, which is unselected by then).
		inc.maintSum -= time.Duration(min(inc.served[i], inc.runs)) * inc.perRun[i]
	}
	pos := inc.k.cand2pos[i]
	for x, q32 := range inc.k.cand2q[i] {
		if p := pos[x]; inc.assigned[q32] == p {
			q := int(q32)
			next, term := inc.nextSource(q, p, -1)
			inc.route(q, next, term)
		}
	}
}

// nextSource returns the source of query q, as an answering-list
// position, and its term, once the selected entry at position at is
// gone: the first later entry that is selected or is the incoming
// candidate in (-1 = none), else the base table (qOff[q+1]).
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) nextSource(q int, at int32, in int) (int32, time.Duration) {
	end := inc.k.qOff[q+1]
	for idx := at + 1; idx < end; idx++ {
		if c := inc.k.ansCand[idx]; inc.selected[c] || int(c) == in {
			return idx, inc.ansTerm[idx]
		}
	}
	return end, inc.qBase[q]
}

// source returns the candidate at position at of query q's answering
// list, or -1 when at stands for the base table.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) source(q int, at int32) int32 {
	if at == inc.k.qOff[q+1] {
		return -1
	}
	return inc.k.ansCand[at]
}

// route reassigns query q to the answering-list position to (qOff[q+1] =
// base) at processing term term, updating the processing aggregate and
// the deferred-maintenance serving counters.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) route(q int, to int32, term time.Duration) {
	if inc.deferred && inc.runs > 0 {
		if from := inc.source(q, inc.assigned[q]); from >= 0 {
			inc.adjustServed(int(from), -inc.k.qFreq[q])
		}
		if to := inc.source(q, to); to >= 0 {
			inc.adjustServed(int(to), inc.k.qFreq[q])
		}
	}
	inc.proc += term - inc.curTerm[q]
	inc.curTerm[q] = term
	inc.assigned[q] = to
}

// adjustServed shifts candidate i's served count by delta and, while i
// is selected, folds the change of its capped refresh count into the
// deferred maintenance aggregate.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) adjustServed(i int, delta int64) {
	before := inc.served[i]
	inc.served[i] = before + delta
	if inc.selected[i] {
		inc.maintSum += time.Duration(min(before+delta, inc.runs)-min(before, inc.runs)) * inc.perRun[i]
	}
}

// Score prices the current subset exactly from the running aggregates.
// Under deferred maintenance with no refresh runs maintSum is never
// moved off zero, which is MaintenanceTimeForWorkload's answer there.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) Score() (time.Duration, costmodel.Bill, error) {
	return inc.billing.price(inc.proc, inc.maintSum, inc.matSum, inc.sizeSum)
}

// errProbeSwap rejects a swap probe whose outgoing candidate is not
// selected or whose incoming one is.
var errProbeSwap = errors.New("optimizer: a swap probe takes out a selected candidate and brings in an unselected one")

// probe is the view-dependent aggregates of the neighbor a Probe prices.
type probe struct {
	proc, maint, mat time.Duration
	size             units.DataSize
}

// Probe prices a neighbor of the current subset: candidate i flipped
// (j < 0), or selected i swapped for unselected j. It returns what a
// Scenario ranks, the workload time and the bill's total, bit-equal to
// moving onto the neighbor and calling Score; Words, Moves and every
// later price are as if the probe never ran.
//
// Under immediate maintenance no engine state is written: every
// aggregate is an integer sum, so the neighbor's are the current ones
// plus the changes of the queries the move re-routes, in any order. This
// is the path a search runs on every neighbor. Under deferred
// maintenance Probe makes the move, scores it and makes the reverse
// move, which restores the state exactly because the state is a function
// of the selected subset alone.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) Probe(i, j int) (Outcome, error) {
	in, out := i, -1 // the candidates the move brings in and takes out
	if inc.selected[i] {
		in, out = j, i
	}
	if j >= 0 && (out < 0 || inc.selected[j]) {
		return Outcome{}, errProbeSwap
	}
	if inc.deferred {
		return inc.probeMoved(in, out)
	}
	p := probe{proc: inc.proc, maint: inc.maintSum, mat: inc.matSum, size: inc.sizeSum}
	// in's pass goes first: it marks the queries it takes from out, which
	// out's pass then leaves alone.
	if in >= 0 {
		inc.probeAdd(&p, in, out)
	}
	if out >= 0 {
		inc.probeDrop(&p, out, in)
	}
	return inc.billing.outcome(p.proc, p.maint, p.mat, p.size)
}

// probeMoved is Probe under deferred maintenance: the move onto the
// neighbor (in and out, -1 = none), the neighbor's outcome, and the
// reverse move, with the move count put back.
func (inc *IncrementalEvaluator) probeMoved(in, out int) (Outcome, error) {
	moves := inc.moves
	if out >= 0 {
		inc.Drop(out)
	}
	if in >= 0 {
		inc.Add(in)
	}
	o, err := inc.billing.outcome(inc.proc, inc.maintSum, inc.matSum, inc.sizeSum)
	if in >= 0 {
		inc.Drop(in)
	}
	if out >= 0 {
		inc.Add(out)
	}
	inc.moves = moves
	return o, err
}

// probeAdd is Add(i) into p under immediate maintenance: the queries on
// whose answering lists i sits before the source are re-routed to it
// (gain). Those it takes from out, the candidate the same move drops,
// are marked taken for probeDrop, in a second walk of i's queries that a
// flip skips.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) probeAdd(p *probe, i, out int) {
	p.size += inc.k.size[i]
	p.mat += inc.mat[i]
	p.maint += inc.maint[i]
	p.proc += inc.gain(i)
	if out < 0 {
		return
	}
	pos := inc.k.cand2pos[i]
	for x, q32 := range inc.k.cand2q[i] {
		if at := inc.assigned[q32]; pos[x] < at && inc.source(int(q32), at) == int32(out) {
			inc.taken[q32] = true
		}
	}
}

// gain is the processing-time change of adding candidate i: the sum,
// over the queries on whose answering lists i sits before the source, of
// i's term less the source's. On the random states a search walks,
// whether i takes a query is a coin flip for a branch predictor, so a
// conditional move, not a jump, keeps or zeroes each query's change.
// The loop is a function of its own, and curTerm is cut to assigned's
// length, to keep its slices in registers.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) gain(i int) time.Duration {
	qs, assigned, ansTerm := inc.k.cand2q[i], inc.assigned, inc.ansTerm
	pos, curTerm := inc.k.cand2pos[i][:len(qs)], inc.curTerm[:len(assigned)]
	var d time.Duration
	for x, q := range qs {
		to, at := pos[x], assigned[q]
		delta := ansTerm[to] - curTerm[q]
		if to >= at {
			delta = 0
		}
		d += delta
	}
	return d
}

// probeDrop is Drop(i) into p under immediate maintenance, with in (-1 =
// none) already selected for the re-route: a query i serves goes to the
// first later entry of its list that is selected or is in, unless
// probeAdd marked it taken by in.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) probeDrop(p *probe, i, in int) {
	p.size -= inc.k.size[i]
	p.mat -= inc.mat[i]
	p.maint -= inc.maint[i]
	pos := inc.k.cand2pos[i]
	for x, q32 := range inc.k.cand2q[i] {
		at := pos[x]
		if inc.assigned[q32] != at {
			continue
		}
		q := int(q32)
		if inc.taken[q] {
			inc.taken[q] = false
			continue
		}
		_, term := inc.nextSource(q, at, in)
		p.proc += term - inc.curTerm[q]
	}
}
