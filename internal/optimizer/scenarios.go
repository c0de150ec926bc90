package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// Evaluator is the oracle: the paper's definitions stated as plain
// lattice walks, with no solver attached. Evaluate is the Section 4 cost
// model (workload time via cheapest-answering routing, the full
// tiered/rounded bill), BuildItems (in the package's tests) the Section
// 5.2 linearized weights, SolveExhaustive the optimum by enumeration.
// The Section 5 solver is KernelSession, which computes the same
// quantities over the kernel's flat arrays; the tests and the repo
// benchmark's oracle hold it to these three definitions.
type Evaluator struct {
	Est *views.Estimator
	W   workload.Workload
	// Base is the plan template: cluster, months, dataset size, egress.
	// Its view-related fields are overwritten per evaluation.
	Base costmodel.Plan
}

// NewEvaluator validates and builds an evaluator.
func NewEvaluator(est *views.Estimator, w workload.Workload, base costmodel.Plan) (*Evaluator, error) {
	if est == nil || est.Lat == nil || est.Cl == nil {
		return nil, fmt.Errorf("optimizer: estimator with lattice and cluster required")
	}
	if err := w.Validate(est.Lat); err != nil {
		return nil, err
	}
	if base.Cluster == nil {
		base.Cluster = est.Cl
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{Est: est, W: w, Base: base}, nil
}

// Evaluate returns the exact monthly workload time and period bill for
// materializing exactly the given points.
func (ev *Evaluator) Evaluate(points []lattice.Point) (time.Duration, costmodel.Bill, error) {
	proc := ev.Est.WorkloadTime(ev.W, points)
	maint := ev.Est.MaintenanceTimeForWorkload(points, ev.W)
	mat := ev.Est.TotalMaterializationTime(points)
	size := ev.Est.ViewsSize(points)
	plan := ev.Base.WithViews(size, proc, maint, mat)
	bill, err := plan.Bill()
	if err != nil {
		return 0, costmodel.Bill{}, err
	}
	return proc, bill, nil
}

// Item is one candidate view with its linearized marginal effects, the
// knapsack weights of Section 5.2. TimeSaved uses a query-to-view
// assignment (each query credits only its single best candidate) so that
// item effects add up without double counting; CostDelta linearizes
// billing (exact hours, slab storage rate at the dataset volume) — the
// final selection is always re-priced exactly with the full cost model.
type Item struct {
	Cand views.Candidate
	// TimeSaved is the monthly workload time this view saves (≥ 0).
	TimeSaved time.Duration
	// CostDelta is the period cost change if only this view is added:
	// storage + maintenance + amortized materialization − compute savings.
	// Negative means the view pays for itself.
	CostDelta money.Money
}

// Selection is a solved scenario: the chosen views with their exact
// re-priced time and bill.
type Selection struct {
	// Points are the selected views.
	Points []lattice.Point
	// Time is the exact monthly workload processing time (TprocessingQ).
	Time time.Duration
	// Bill is the exact period bill.
	Bill costmodel.Bill
	// Feasible reports whether the scenario's constraint is met.
	Feasible bool
	// Strategy names the solver that produced the selection.
	Strategy string
	// Degraded marks a selection returned early because the solver's
	// deadline expired: still bit-valid and exactly priced, but the
	// search stopped at its best incumbent instead of running to
	// convergence. Budget exhaustion does NOT set this — only a
	// wall-clock deadline does, so degraded results are the only
	// timing-dependent ones.
	Degraded bool
}

// TradeoffMode selects how MV3 mixes time and cost.
type TradeoffMode int

const (
	// RawTradeoff uses Formula 15 literally: α·T[h] + (1−α)·C[$].
	RawTradeoff TradeoffMode = iota
	// NormalizedTradeoff divides T and C by their no-view baselines first,
	// making α unit-free.
	NormalizedTradeoff
)

// Objective computes the MV3 objective value for a given time and bill:
// Scenario.Score. It goes with ROADMAP item 3 (the repo benchmark calls it).
func Objective(alpha float64, t time.Duration, bill costmodel.Bill, mode TradeoffMode, baseT time.Duration, baseBill costmodel.Bill) float64 {
	tv, cv := t.Hours(), bill.Total().Dollars()
	if mode == NormalizedTradeoff {
		if baseT > 0 {
			tv /= baseT.Hours()
		}
		if baseBill.Total() > 0 {
			cv /= baseBill.Total().Dollars()
		}
	}
	// The float64 conversions round each product before the add, so no port
	// fuses them into one multiply-add (scripts/nofma.sh).
	return float64(alpha*tv) + float64((1-alpha)*cv)
}

// Scenario is one of the paper's Section 5 problems, defined once: MV1
// (Formula 13, least time within a budget), MV2 (Formula 14, least bill
// within a time limit) or MV3 (Formula 15, least α·T + (1−α)·C). Its
// constraint (Met) and its total order on priced outcomes, in integers
// (Compare), are what every solver and ranker reads. The zero Scenario
// is no scenario, and solvers refuse it.
type Scenario struct {
	name string
	// The constraint: the most an outcome that meets it may cost and take.
	maxCost money.Money
	maxTime time.Duration
	// Formula 15: α in millionths, the mode and its baselines (Score),
	// and the key's weights on T and C in 128 bits (hi, lo).
	alphaMicros uint64
	mode        TradeoffMode
	baseT       time.Duration
	baseBill    costmodel.Bill
	wT, wC      [2]uint64
}

// alphaGrid is the number of steps of Tradeoff's α grid: α snaps to the
// nearest multiple of 10⁻⁶.
const alphaGrid = 1_000_000

// Budget is scenario MV1 (Formula 13): least workload time with the
// period bill within budget.
func Budget(budget money.Money) Scenario {
	return Scenario{name: "mv1", maxCost: budget, maxTime: math.MaxInt64, alphaMicros: alphaGrid}
}

// Deadline is scenario MV2 (Formula 14): least bill with the monthly
// workload time within limit.
func Deadline(limit time.Duration) Scenario {
	return Scenario{name: "mv2", maxCost: money.MaxMoney, maxTime: limit}
}

// Tradeoff is scenario MV3 (Formula 15): least α·T + (1−α)·C,
// unconstrained. α must lie in [0,1], and snaps to the 10⁻⁶ grid. The
// normalized mode divides T and C by the no-view baseline (a zero
// baseline leaves its term in hours or dollars); raw mode ignores it.
func Tradeoff(alpha float64, mode TradeoffMode, baseT time.Duration, baseBill costmodel.Bill) (Scenario, error) {
	if !(alpha >= 0 && alpha <= 1) {
		return Scenario{}, fmt.Errorf("optimizer: alpha %g out of [0,1]", alpha)
	}
	s := Scenario{name: "mv3", maxCost: money.MaxMoney, maxTime: math.MaxInt64, alphaMicros: uint64(math.Round(alpha * alphaGrid))}
	dT, dC := uint64(time.Hour), uint64(money.FromDollars(1))
	if mode == NormalizedTradeoff {
		s.mode, s.baseT, s.baseBill = mode, baseT, baseBill
		if baseT > 0 {
			dT = uint64(baseT)
		}
		if c0 := baseBill.Total(); c0 > 0 {
			dC = uint64(c0)
		}
	}
	s.wT[0], s.wT[1] = bits.Mul64(s.alphaMicros, dC)
	s.wC[0], s.wC[1] = bits.Mul64(alphaGrid-s.alphaMicros, dT)
	return s, nil
}

// Name is "mv1", "mv2" or "mv3", and "" for the zero Scenario.
func (s *Scenario) Name() string { return s.name }

// Met reports whether an outcome meets the constraint: the bill within
// the budget (MV1) or the time within the limit (MV2); MV3 has none.
func (s *Scenario) Met(t time.Duration, bill costmodel.Bill) bool {
	return s.met(Outcome{t, bill.Total()})
}

func (s *Scenario) met(o Outcome) bool { return o.Cost <= s.maxCost && o.Time <= s.maxTime }

// Violation is how far an outcome misses the constraint, 0 exactly when
// it is Met: dollars over the budget (MV1), hours over the limit (MV2).
// The search ranks two infeasible states by it (see DESIGN.md).
func (s *Scenario) Violation(o Outcome) float64 {
	if o.Cost > s.maxCost {
		return o.Cost.Sub(s.maxCost).Dollars()
	}
	if o.Time > s.maxTime {
		return (o.Time - s.maxTime).Hours()
	}
	return 0
}

// Score is the objective as a float: Formula 15 at the snapped α, α = 1
// for MV1 (hours) and α = 0 for MV2 (dollars). The annealer's energy and
// SolveExhaustive read it; every ranking is Compare's.
func (s *Scenario) Score(t time.Duration, bill costmodel.Bill) float64 {
	return Objective(float64(s.alphaMicros)/alphaGrid, t, bill, s.mode, s.baseT, s.baseBill)
}

// Outcome is a priced selection as a Scenario ranks it: the workload
// time and the bill's total.
type Outcome struct {
	Time time.Duration
	Cost money.Money
}

// Compare is the scenario's total order on outcomes, negative when a
// ranks before b and 0 only when they are equal: an outcome that meets
// the constraint first; then the objective, the time in ns (MV1), the
// cost in µ$ (MV2) or Formula 15 cross-multiplied exactly (MV3, key);
// then the lower cost; then the lower time.
func (s *Scenario) Compare(a, b Outcome) int {
	if am, bm := s.met(a), s.met(b); am != bm {
		if am {
			return -1
		}
		return 1
	}
	switch s.name { // MV2's objective is the cost, the first tie-break
	case "mv1":
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
	case "mv3":
		ah, al := s.key(a)
		bh, bl := s.key(b)
		if c := cmp.Or(cmp.Compare(ah, bh), cmp.Compare(al, bl)); c != 0 {
			return c
		}
	}
	if a.Cost != b.Cost {
		return cmp.Compare(a.Cost, b.Cost)
	}
	return cmp.Compare(a.Time, b.Time)
}

// key is o's MV3 objective α·T/dT + (1−α)·C/dC times 10⁶·dT·dC, with dT
// and dC the ns and µ$ in a unit of T and C: T·wT + C·wC, wT = a·dC and
// wC = (10⁶−a)·dT for a the α in millionths. It is 128 bits (hi, lo),
// exact whenever it fits and saturated at 2¹²⁸−1 when it does not. Raw
// mode's weights are below 2⁶², so every non-negative int64 outcome fits.
// Normalized mode's keys fit while every time (ns) and cost (µ$),
// baselines included, is at most 2⁵⁴ (5,004 hours, $18 billion): the key
// is then at most 10⁶·2¹⁰⁸. The key reads a negative time or cost, which
// no priced outcome has, as 0.
func (s *Scenario) key(o Outcome) (hi, lo uint64) {
	th, tl, tover := wide(uint64(max(o.Time, 0)), s.wT)
	ch, cl, cover := wide(uint64(max(o.Cost, 0)), s.wC)
	lo, carry := bits.Add64(tl, cl, 0)
	if hi, carry = bits.Add64(th, ch, carry); tover || cover || carry != 0 {
		return math.MaxUint64, math.MaxUint64
	}
	return hi, lo
}

// wide returns x·w in 128 bits, and whether it overflows them.
func wide(x uint64, w [2]uint64) (hi, lo uint64, over bool) {
	hi, lo = bits.Mul64(x, w[1])
	h, l := bits.Mul64(x, w[0])
	hi, carry := bits.Add64(hi, l, 0)
	return hi, lo, h != 0 || carry != 0
}

// SolveExhaustive enumerates every subset of candidates (n ≤ 20), prices
// each exactly, and returns the best selection under the given objective
// among those satisfying the constraint. If no subset is feasible the
// best-objective infeasible subset is returned with Feasible=false.
// It is the optimum the solvers' answers are measured against.
func (ev *Evaluator) SolveExhaustive(
	cands []views.Candidate,
	objective func(time.Duration, costmodel.Bill) float64,
	constraint func(time.Duration, costmodel.Bill) bool,
) (Selection, error) {
	if len(cands) > 20 {
		return Selection{}, fmt.Errorf("optimizer: exhaustive search over %d candidates refused (max 20)", len(cands))
	}
	if objective == nil {
		return Selection{}, fmt.Errorf("optimizer: objective required")
	}
	var (
		best    Selection
		bestObj float64
	)
	n := len(cands)
	pts := make([]lattice.Point, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		pts = pts[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				pts = append(pts, cands[i].Point)
			}
		}
		t, bill, err := ev.Evaluate(pts)
		if err != nil {
			return Selection{}, err
		}
		obj := objective(t, bill)
		ok := constraint == nil || constraint(t, bill)
		// A feasible subset beats every infeasible one; between two of a
		// kind the lower objective wins, the first on ties.
		if mask == 0 || ok && !best.Feasible || ok == best.Feasible && obj < bestObj {
			best = Selection{
				Points:   append([]lattice.Point(nil), pts...),
				Time:     t,
				Bill:     bill,
				Feasible: ok,
				Strategy: "exhaustive",
			}
			bestObj = obj
		}
	}
	return best, nil
}
