package optimizer

import (
	"fmt"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/obs"
	"vmcloud/internal/simtime"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
)

// IncrementalEvaluator prices candidate subsets by delta evaluation: the
// candidate set and workload are pinned once (in a ComparisonKernel), and
// every Add/Drop move updates running aggregates in O(affected queries)
// instead of the Evaluator's O(|workload| × |selection|) full
// recomputation. Score() rebuilds the exact tiered bill from the
// aggregates via the same Plan.Bill the Evaluator uses, so an
// IncrementalEvaluator state is bit-equal — time, bill, size — to
// Evaluator.Evaluate of the same subset (the property tests in
// incremental_test.go enforce this on random lattices and move
// sequences).
//
// Invariants maintained across moves:
//
//   - assigned[q] is the candidate index whose view answers query q under
//     cheapest-answering routing (-1 = base table), with the Evaluator's
//     exact tie rule: fewest rows wins, ties keep the lowest candidate
//     index, and a view never beats the base without strictly fewer rows.
//   - proc = Σ_q freq_q × TimeForJob(rows(assigned[q]))   (Formula 9)
//   - sizeSum/matSum = Σ over selected views               (Formula 7, §4.3)
//   - maintSum matches the estimator's maintenance policy: immediate sums
//     Formula 11 over selected views; deferred caps each view's refresh
//     count at the executions it serves, tracked per point group.
//
// Full re-pricing still runs in exactly two places: Reset (pinning an
// arbitrary subset, used for search restarts) and the Bill arithmetic in
// Score (tier boundaries and billing rounding are global, so the exact
// bill is always recomputed from the aggregates — never linearized).
//
// The structural half (answering lists, groups, candidate scalars) lives
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
	assigned []int32  // per query: candidate index or -1 (base)
	curTerm  []time.Duration
	served   []int64 // per group: monthly executions routed to the group

	// Running aggregates.
	proc     time.Duration
	maintSum time.Duration
	matSum   time.Duration
	sizeSum  units.DataSize

	// transfer is the period's egress charge (Formula 3), the one bill
	// term no selection changes.
	transfer money.Money

	// moves counts Add/Drop calls over the engine's lifetime. A plain
	// field, not an atomic or a telemetry counter: the solvers own the
	// engine exclusively during a solve, and the search wrapper flushes
	// the delta to obs.IncrementalMoves once per solve, so the inner
	// loop's per-move cost stays a single increment.
	moves int64
}

// NewIncrementalEvaluator pins a candidate set against an evaluator: a
// one-shot ComparisonKernel build followed by Bind. Callers re-pricing
// the same problem under several tariffs should build the kernel once
// and Bind per tariff instead.
func NewIncrementalEvaluator(ev *Evaluator, cands []views.Candidate) (*IncrementalEvaluator, error) {
	if ev == nil || ev.Est == nil || ev.Est.Lat == nil {
		return nil, fmt.Errorf("optimizer: incremental evaluator needs a wired evaluator")
	}
	k, err := NewComparisonKernel(ev.Est.Lat, ev.W, cands)
	if err != nil {
		return nil, err
	}
	return k.Bind(ev)
}

// Bind derives a delta-evaluation engine for one tariff: the kernel's
// pinned structure plus this evaluator's time scalars. The evaluator
// must be wired over the kernel's lattice.
func (k *ComparisonKernel) Bind(ev *Evaluator) (*IncrementalEvaluator, error) {
	inc := new(IncrementalEvaluator)
	if _, _, err := k.bindInto(inc, ev, 0, 0); err != nil {
		return nil, err
	}
	return inc, nil
}

// bindInto is Bind into an engine the caller allocated. A binding is
// per cell of a comparison fan-out, so its allocation count is part of
// the per-tariff cost: every duration, int64 and int32 array comes from
// one slab of its type, and a caller with arrays of its own to place
// (RepriceFor's solver scratch) asks for spare64 and spare32 more
// elements of the last two and gets them back.
func (k *ComparisonKernel) bindInto(inc *IncrementalEvaluator, ev *Evaluator, spare64, spare32 int) ([]int64, []int32, error) {
	if ev == nil || ev.Est == nil || ev.Est.Lat == nil {
		return nil, nil, fmt.Errorf("optimizer: incremental evaluator needs a wired evaluator")
	}
	if ev.Est.Lat != k.Lat {
		return nil, nil, fmt.Errorf("optimizer: evaluator lattice differs from the kernel's")
	}
	obs.KernelRebinds.Inc()
	groups := len(k.groupMembers)
	// curTerm, then bindScalars' arena.
	durations := make([]time.Duration, k.nq+4*k.n+k.nq+len(k.ansCand))
	int64s := make([]int64, groups+spare64)
	int32s := make([]int32, k.nq+spare32)
	*inc = IncrementalEvaluator{
		ev:             ev,
		k:              k,
		sessionScalars: k.bindScalars(ev, durations[k.nq:]),
		selected:       make([]bool, k.n),
		words:          make([]uint64, (k.n+63)/64),
		assigned:       int32s[:k.nq:k.nq],
		curTerm:        durations[:k.nq:k.nq],
		served:         int64s[:groups:groups],
	}
	inc.transfer = costmodel.TransferCost(ev.Base.Cluster.Provider, ev.Base.MonthlyEgress).MulFloat(ev.Base.Months)
	inc.resetEmpty()
	return int64s[groups:], int32s[k.nq:], nil
}

// Evaluator returns the exact evaluator this engine is bound to.
func (inc *IncrementalEvaluator) Evaluator() *Evaluator { return inc.ev }

// Moves returns the lifetime Add/Drop move count. The search wrapper
// diffs it around a solve to flush the delta into obs.IncrementalMoves.
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
func (inc *IncrementalEvaluator) Words() []uint64 { return inc.words }

// resetEmpty pins the empty subset: every query runs on the base table.
func (inc *IncrementalEvaluator) resetEmpty() {
	for i := range inc.selected {
		inc.selected[i] = false
	}
	for w := range inc.words {
		inc.words[w] = 0
	}
	for g := range inc.served {
		inc.served[g] = 0
	}
	inc.proc = 0
	for q := range inc.assigned {
		inc.assigned[q] = -1
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

// Add materializes candidate i: aggregates grow by its scalars and only
// the queries i can answer are re-routed (they move to i exactly when i
// beats their current source under the tie rule).
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
		// A group sibling (duplicate point) may already be serving
		// queries; the new member is billed for the group's capped
		// refresh count from the moment it is selected.
		inc.maintSum += time.Duration(min(inc.served[inc.k.group[i]], inc.runs)) * inc.perRun[i]
	}
	ri := inc.k.rows[i]
	for _, q32 := range inc.k.cand2q[i] {
		q := int(q32)
		cur := inc.assigned[q]
		if cur >= 0 {
			rc := inc.k.rows[cur]
			if ri > rc || (ri == rc && int32(i) > cur) {
				continue
			}
		}
		inc.route(q, int32(i))
	}
}

// Drop unmaterializes candidate i: only queries currently assigned to it
// are re-routed, to their cheapest remaining selected source (or base).
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
		// Shed this member's share of the group's capped refresh bill
		// before re-routing (the re-route below no longer counts i).
		inc.maintSum -= time.Duration(min(inc.served[inc.k.group[i]], inc.runs)) * inc.perRun[i]
	}
	for _, q32 := range inc.k.cand2q[i] {
		q := int(q32)
		if inc.assigned[q] != int32(i) {
			continue
		}
		next := int32(-1)
		for idx := inc.k.qOff[q]; idx < inc.k.qOff[q+1]; idx++ {
			if c := inc.k.ansCand[idx]; inc.selected[c] {
				next = c
				break
			}
		}
		inc.route(q, next)
	}
}

// route reassigns query q to candidate to (-1 = base), updating the
// processing aggregate and the deferred-maintenance serving counters.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) route(q int, to int32) {
	from := inc.assigned[q]
	if inc.deferred && inc.runs > 0 {
		if from >= 0 {
			inc.adjustServed(int(from), -inc.k.qFreq[q])
		}
		if to >= 0 {
			inc.adjustServed(int(to), inc.k.qFreq[q])
		}
	}
	var term time.Duration
	if to < 0 {
		term = inc.qBase[q]
	} else {
		for idx := inc.k.qOff[q]; idx < inc.k.qOff[q+1]; idx++ {
			if inc.k.ansCand[idx] == to {
				term = inc.ansTerm[idx]
				break
			}
		}
	}
	inc.proc += term - inc.curTerm[q]
	inc.curTerm[q] = term
	inc.assigned[q] = to
}

// adjustServed shifts a point group's served count by delta and folds
// the capped-refresh change of every selected group member into the
// deferred maintenance aggregate. Groups almost always hold one
// candidate; duplicates of one point share a counter exactly like the
// Evaluator's per-point accounting.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) adjustServed(i int, delta int64) {
	g := inc.k.group[i]
	before := inc.served[g]
	after := before + delta
	inc.served[g] = after
	cb, ca := min(before, inc.runs), min(after, inc.runs)
	if cb == ca {
		return
	}
	// Capped refresh count changed: update every selected candidate in
	// the group (perRun is identical within a group).
	for _, j := range inc.k.groupMembers[g] {
		if inc.selected[j] {
			inc.maintSum += time.Duration(ca-cb) * inc.perRun[j]
		}
	}
}

// maintenance returns TmaintenanceV for the current subset under the
// estimator's policy. In deferred mode a dropped-to-zero maintSum and
// runs<=0 mirror MaintenanceTimeForWorkload exactly.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) maintenance() time.Duration {
	if inc.deferred && inc.runs <= 0 {
		return 0
	}
	return inc.maintSum
}

// Score prices the current subset exactly: the running aggregates feed
// the same formulas as Plan.Bill (full tiered, rounded billing — no
// linearization), so the result is bit-equal to Evaluate of the same
// points. Only the four view-dependent terms are priced per call; the
// egress charge does not depend on the selection and was priced at Bind,
// where the evaluator's base plan had already been validated.
//
//mvlint:hotpath
func (inc *IncrementalEvaluator) Score() (time.Duration, costmodel.Bill, error) {
	base := &inc.ev.Base
	maint := inc.maintenance()
	if inc.sizeSum < 0 || inc.proc < 0 || maint < 0 || inc.matSum < 0 {
		// Overflowed aggregates: Plan.Bill owns the rejection.
		_, err := base.WithViews(inc.sizeSum, inc.proc, maint, inc.matSum).Bill()
		return 0, costmodel.Bill{}, err
	}
	var b costmodel.Bill
	b.Compute.Processing = base.Cluster.ComputeCost(inc.proc).MulFloat(base.Months)
	b.Compute.Maintenance = base.Cluster.ComputeCost(maint).MulFloat(base.Months)
	b.Compute.Materialization = base.Cluster.ComputeCost(inc.matSum)
	var err error
	b.Storage, err = costmodel.StorageCost(base.Cluster.Provider, simtime.Timeline{
		Initial: base.DatasetSize + inc.sizeSum,
		Horizon: simtime.Months(base.Months),
		Events:  base.Inserts,
	})
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	b.Transfer = inc.transfer
	return inc.proc, b, nil
}
