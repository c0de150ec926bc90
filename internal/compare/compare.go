// Package compare answers the question the single-provider advisor
// cannot: "which cloud should this workload run on, and with which
// materialized views?" It fans the advisor out across every requested
// provider × instance type × cluster size configuration on a bounded
// worker pool — one core.Advisor (and thus one optimizer.Evaluator) per
// configuration, solves running concurrently — and merges the results
// deterministically into a ranked Comparison: the full cost/time matrix,
// the per-scenario winner, a cross-provider Pareto frontier, and the
// budget break-even points where the winning provider flips.
//
// This is the multi-CSP extension the paper lists as future work (§8),
// in the spirit of Perriot et al.'s cross-tariff cost models.
package compare

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
	"vmcloud/internal/obs"
	"vmcloud/internal/pricing"
	"vmcloud/internal/report"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// Scenario names accepted by Request.Scenarios, in canonical order.
var scenarioOrder = []string{"mv1", "mv2", "mv3", "pareto"}

// Defaults shared by the native (Request) and wire (RequestJSON)
// normalization paths — change them here and both stay in sync.
const (
	defaultInstanceType   = "small"
	defaultFleetSize      = 5
	defaultAlpha          = 0.5
	defaultParetoSteps    = 11
	defaultBreakEvenSteps = 8
)

// canonScenarios validates a scenario list and returns it as a fresh
// slice in canonical order with duplicates collapsed. An empty list
// derives the set from which parameters were given: mv1 when a budget
// was, mv2 when a limit was, and mv3 always (pareto only explicitly).
// Both the native and the JSON request forms canonicalize through here,
// so the CLI/facade and the server can never disagree on scenario rules.
func canonScenarios(explicit []string, haveBudget, haveLimit bool) ([]string, error) {
	want := map[string]bool{}
	if len(explicit) == 0 {
		want["mv3"] = true
		if haveBudget {
			want["mv1"] = true
		}
		if haveLimit {
			want["mv2"] = true
		}
	}
	for _, s := range explicit {
		switch s {
		case "mv1", "mv2", "mv3", "pareto":
			want[s] = true
		default:
			return nil, fmt.Errorf("compare: unknown scenario %q (want mv1, mv2, mv3 or pareto)", s)
		}
	}
	out := make([]string, 0, len(want))
	for _, s := range scenarioOrder {
		if want[s] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Request describes a cross-provider comparison. Zero values follow the
// repo convention of selecting the paper's experimental defaults.
type Request struct {
	// Providers are the tariffs to compare; empty means the full built-in
	// catalog (pricing.Catalog).
	Providers []pricing.Provider
	// InstanceTypes are the configuration names to try on each provider;
	// empty means {"small"}. Types a provider does not offer are skipped
	// (recorded in Comparison.Skipped).
	InstanceTypes []string
	// FleetSizes are the cluster sizes (nbIC) to try; empty means {5}.
	FleetSizes []int

	// Workload is required: the queries every configuration is priced for.
	Workload workload.Workload
	// FactRows, Months, CandidateBudget, MaintenanceRuns, UpdateRatio,
	// MaintenancePolicy and JobOverhead parameterize each advisory problem
	// exactly as core.Config does (zero values = paper defaults).
	FactRows          int64
	Months            float64
	CandidateBudget   int
	MaintenanceRuns   int
	UpdateRatio       float64
	MaintenancePolicy views.MaintenancePolicy
	JobOverhead       time.Duration
	// Solver and Seed select the optimization engine per configuration,
	// exactly as core.Config does ("knapsack" default, "search", "auto").
	Solver string
	Seed   int64

	// Scenarios selects which objectives to solve per configuration, from
	// "mv1", "mv2", "mv3" and "pareto". Empty derives the set from the
	// parameters given: mv1 when Budget > 0, mv2 when Limit > 0, and mv3
	// always (pareto only when named explicitly).
	Scenarios []string
	// Budget is the MV1 spending limit; required when mv1 is requested.
	Budget money.Money
	// Limit is the MV2 response-time limit; required when mv2 is requested.
	Limit time.Duration
	// Alpha is the MV3 weight on time; zero selects 0.5.
	Alpha float64
	// Steps is the per-configuration pareto sweep resolution; zero
	// selects 11.
	Steps int

	// BreakEvenSteps is the resolution of the budget sweep used to locate
	// winner flips (mv1 only): budgets are spaced evenly over
	// [Budget/2, 2·Budget]. Zero selects 8; negative disables the sweep.
	BreakEvenSteps int

	// Workers bounds the fan-out worker pool; zero selects GOMAXPROCS.
	// One worker reproduces the sequential baseline.
	Workers int

	// Trace, when non-nil, accumulates per-phase durations across the
	// whole fan-out (its phase slots are atomic, so concurrent cells
	// record safely). Nil records nothing.
	Trace *obs.Trace

	// Ctx, when non-nil, bounds the whole fan-out: cells not yet started
	// when it expires are abandoned (Run returns the context error), and
	// search-solver cells already in flight stop at their best incumbent,
	// marking the comparison Degraded (see core.Config.Ctx). Nil means no
	// deadline.
	Ctx context.Context
}

// Key identifies one fanned-out configuration.
type Key struct {
	Provider     string `json:"provider"`
	InstanceType string `json:"instance_type"`
	Instances    int    `json:"instances"`
}

// String renders "provider/instance×n".
func (k Key) String() string {
	return string(k.AppendString(make([]byte, 0, 32)))
}

// AppendString appends the String form to dst.
//
//mvlint:hotpath
func (k Key) AppendString(dst []byte) []byte {
	dst = append(dst, k.Provider...)
	dst = append(dst, '/')
	dst = append(dst, k.InstanceType...)
	dst = append(dst, "×"...)
	return strconv.AppendInt(dst, int64(k.Instances), 10)
}

func (k Key) less(o Key) bool {
	if k.Provider != o.Provider {
		return k.Provider < o.Provider
	}
	if k.InstanceType != o.InstanceType {
		return k.InstanceType < o.InstanceType
	}
	return k.Instances < o.Instances
}

// ScenarioResult is one solved objective for one configuration.
type ScenarioResult struct {
	Scenario string
	Rec      core.Recommendation
}

// ConfigResult is one row of the comparison matrix: every requested
// scenario solved for one provider × instance × fleet configuration.
type ConfigResult struct {
	Key
	DatasetSize units.DataSize
	// Results holds one entry per requested mv scenario, in canonical
	// scenario order.
	Results []ScenarioResult
	// Pareto is this configuration's frontier (when "pareto" is requested).
	Pareto []core.ParetoPoint
	// breakEven[i] is this configuration's mv1 outcome at sweep budget i.
	breakEven []budgetOutcome
}

// Result returns the recommendation solved for the given scenario.
func (c ConfigResult) Result(scenario string) (core.Recommendation, bool) {
	for _, r := range c.Results {
		if r.Scenario == scenario {
			return r.Rec, true
		}
	}
	return core.Recommendation{}, false
}

// budgetOutcome is one cell of the break-even sweep.
type budgetOutcome struct {
	time     time.Duration
	cost     money.Money
	feasible bool
}

// Winner names the best configuration for one scenario.
type Winner struct {
	Scenario string
	Key
	Time     time.Duration
	Cost     money.Money
	Feasible bool
}

// ParetoEntry is one point of the merged cross-provider frontier.
type ParetoEntry struct {
	Key
	Point core.ParetoPoint
}

// Flip marks a budget at which the winning configuration changes.
type Flip struct {
	// Budget is the first sweep budget at which To leads.
	Budget money.Money
	From   Key
	To     Key
}

// BreakEven is the budget sweep: the mv1 winner at each budget and the
// flip points between consecutive sweep budgets. Flip budgets are exact
// only to the sweep resolution.
type BreakEven struct {
	Budgets []money.Money
	Winners []Key
	Flips   []Flip
}

// Comparison is the merged, deterministically ordered report.
type Comparison struct {
	// Scenarios echoes the solved scenario set in canonical order.
	Scenarios []string
	// Configs is the full matrix, sorted by provider, instance type, fleet.
	Configs []ConfigResult
	// Winners holds one entry per mv scenario, in canonical order.
	Winners []Winner
	// Pareto is the global non-dominated frontier across all
	// configurations (when "pareto" is requested).
	Pareto []ParetoEntry
	// BreakEven is the mv1 budget sweep (nil when disabled or mv1 absent).
	BreakEven *BreakEven
	// Skipped lists configurations dropped because the provider does not
	// offer the instance type.
	Skipped []Key
	// Degraded reports whether any cell's search stopped at the request
	// deadline with its best incumbent (see Request.Ctx). Degraded
	// comparisons are exactly priced but timing-dependent, so callers
	// must not memoize them.
	Degraded bool
}

// normalized is a validated request with every default applied.
type normalized struct {
	Request
	scenarios    map[string]bool
	sweepBudgets []money.Money
}

func (r Request) normalize() (normalized, error) {
	n := normalized{Request: r, scenarios: map[string]bool{}}
	if len(n.Providers) == 0 {
		cat := pricing.Catalog()
		for _, name := range pricing.ProviderNames() {
			n.Providers = append(n.Providers, cat[name])
		}
	}
	seen := map[string]bool{}
	// Deep-copy the tariffs once here: cells sharing a provider (several
	// fleet sizes, several instance types) can then alias one read-only
	// copy without a per-cell defensive clone, and the caller's slice is
	// never retained.
	cloned := make([]pricing.Provider, 0, len(n.Providers))
	for _, p := range n.Providers {
		if err := p.Validate(); err != nil {
			return normalized{}, err
		}
		if seen[p.Name] {
			return normalized{}, fmt.Errorf("compare: duplicate provider %q", p.Name)
		}
		seen[p.Name] = true
		cloned = append(cloned, p.Clone())
	}
	n.Providers = cloned
	if len(n.InstanceTypes) == 0 {
		n.InstanceTypes = []string{defaultInstanceType}
	}
	n.InstanceTypes = dedupeSorted(n.InstanceTypes)
	if len(n.FleetSizes) == 0 {
		n.FleetSizes = []int{defaultFleetSize}
	}
	n.FleetSizes = dedupeSortedInts(n.FleetSizes)
	for _, f := range n.FleetSizes {
		if f < 1 {
			return normalized{}, fmt.Errorf("compare: fleet size %d < 1", f)
		}
	}
	var err error
	n.Request.Scenarios, err = canonScenarios(n.Request.Scenarios, n.Budget > 0, n.Limit > 0)
	if err != nil {
		return normalized{}, err
	}
	for _, s := range n.Request.Scenarios {
		n.scenarios[s] = true
	}
	if n.scenarios["mv1"] && n.Budget <= 0 {
		return normalized{}, fmt.Errorf("compare: scenario mv1 requires a positive budget")
	}
	if n.scenarios["mv2"] && n.Limit <= 0 {
		return normalized{}, fmt.Errorf("compare: scenario mv2 requires a positive limit")
	}
	if n.Alpha == 0 {
		n.Alpha = defaultAlpha
	}
	if n.Alpha < 0 || n.Alpha > 1 {
		return normalized{}, fmt.Errorf("compare: alpha %g out of [0,1]", n.Alpha)
	}
	if n.Steps == 0 {
		n.Steps = defaultParetoSteps
	}
	if n.scenarios["pareto"] && n.Steps < 2 {
		return normalized{}, fmt.Errorf("compare: pareto needs at least 2 steps, got %d", n.Steps)
	}
	if n.BreakEvenSteps == 0 {
		n.BreakEvenSteps = defaultBreakEvenSteps
	}
	if n.scenarios["mv1"] && n.BreakEvenSteps >= 2 {
		lo, hi := n.Budget.DivInt(2), n.Budget.MulInt(2)
		for i := 0; i < n.BreakEvenSteps; i++ {
			frac := float64(i) / float64(n.BreakEvenSteps-1)
			n.sweepBudgets = append(n.sweepBudgets, lo.Add(hi.Sub(lo).MulFloat(frac)))
		}
	}
	n.Solver, err = core.CanonSolver(n.Solver)
	if err != nil {
		return normalized{}, err
	}
	if n.Solver != core.SolverSearch {
		// Comparisons are sales-schema-only, so "auto" can never reach
		// search (candidate pools stay at or below AutoSearchThreshold);
		// drop the unused seed, matching the wire canonicalization.
		n.Seed = 0
	}
	if n.Workers == 0 {
		n.Workers = runtime.GOMAXPROCS(0)
	}
	if n.Workers < 1 {
		n.Workers = 1
	}
	return n, nil
}

// shared builds the pricing-invariant structure of a normalized request
// — the one place the grid engines (Run, RunSweep) translate the shared
// problem fields into a core.Config, so a future field cannot be
// threaded into one engine and silently defaulted in the other.
func (n normalized) shared() (*core.Shared, error) {
	return core.NewShared(core.Config{
		FactRows:          n.FactRows,
		Months:            n.Months,
		Workload:          n.Workload,
		CandidateBudget:   n.CandidateBudget,
		MaintenanceRuns:   n.MaintenanceRuns,
		UpdateRatio:       n.UpdateRatio,
		MaintenancePolicy: n.MaintenancePolicy,
		JobOverhead:       n.JobOverhead,
		Solver:            n.Solver,
		Seed:              n.Seed,
		Trace:             n.Trace,
		Ctx:               n.Ctx,
	})
}

// fanOut runs solve(i) for i in [0, jobs) on at most workers
// goroutines, the caller's included — the shared concurrency scaffold
// of the grid engines. Every goroutine claims the next unsolved index
// from one atomic cursor, so one worker (or one job) runs inline and
// spawns nothing.
func fanOut(workers, jobs int, solve func(int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < jobs; i = int(next.Add(1)) - 1 {
			solve(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(workers, jobs) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// cells expands the provider × instance × fleet grid in deterministic
// order, separating configurations whose instance type the provider does
// not offer.
func (n normalized) cells() (keys []Key, providers []pricing.Provider, skipped []Key) {
	provs := append([]pricing.Provider(nil), n.Providers...)
	sort.Slice(provs, func(i, j int) bool { return provs[i].Name < provs[j].Name })
	types := append([]string(nil), n.InstanceTypes...)
	sort.Strings(types)
	fleets := append([]int(nil), n.FleetSizes...)
	sort.Ints(fleets)
	for _, p := range provs {
		for _, it := range types {
			_, offered := p.Compute.Instances[it]
			for _, f := range fleets {
				k := Key{Provider: p.Name, InstanceType: it, Instances: f}
				if !offered {
					skipped = append(skipped, k)
					continue
				}
				keys = append(keys, k)
				providers = append(providers, p)
			}
		}
	}
	return keys, providers, skipped
}

// Run solves every configuration on a bounded worker pool and merges the
// outcomes. The result is deterministic: identical requests produce
// identical comparisons regardless of worker count, scheduling, or the
// order providers were listed in.
//
// The pricing-invariant structure — lattice, workload canonicalization,
// HRU candidates, answering lists — is built exactly once (core.Shared's
// comparison kernel) and shared read-only by every worker; each grid
// cell then costs only a tariff re-bind (cluster + re-priced time
// scalars) and the scenario solves.
func Run(req Request) (*Comparison, error) {
	n, err := req.normalize()
	if err != nil {
		return nil, err
	}
	keys, providers, skipped := n.cells()
	if len(keys) == 0 {
		return nil, fmt.Errorf("compare: no runnable configurations (every provider × instance pairing was skipped)")
	}
	shared, err := n.shared()
	if err != nil {
		return nil, err
	}

	results := make([]ConfigResult, len(keys))
	errs := make([]error, len(keys))
	fanOut(n.Workers, len(keys), func(i int) {
		// Cooperative cancellation between cells: a cell that has not
		// started when the deadline passes is abandoned outright (cells in
		// flight stop via the search solver's own deadline gate).
		if n.Ctx != nil && n.Ctx.Err() != nil {
			errs[i] = n.Ctx.Err()
			return
		}
		results[i], errs[i] = n.solveCell(shared, keys[i], providers[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("compare: %s: %w", keys[i], err)
		}
	}

	comp := &Comparison{
		Scenarios: append([]string(nil), n.Request.Scenarios...),
		Configs:   results,
		Skipped:   skipped,
		Degraded:  anyDegraded(results),
	}
	for _, s := range n.Request.Scenarios {
		if s == "pareto" {
			comp.Pareto = mergeFrontiers(results)
			continue
		}
		comp.Winners = append(comp.Winners, pickWinner(s, n.Alpha, results))
	}
	if len(n.sweepBudgets) > 0 {
		comp.BreakEven = buildBreakEven(n.sweepBudgets, results)
	}
	return comp, nil
}

// solveCell re-prices the shared structure for one tariff cell and
// solves every requested scenario plus the break-even budget sweep. Each
// cell owns its advisor (a per-tariff kernel binding over the read-only
// shared structure), so cells are fully independent and safe to run
// concurrently.
func (n normalized) solveCell(shared *core.Shared, k Key, prov pricing.Provider) (ConfigResult, error) {
	adv, err := shared.Advisor(prov, k.InstanceType, k.Instances)
	if err != nil {
		return ConfigResult{}, err
	}
	out := ConfigResult{Key: k, DatasetSize: core.DatasetSizeOf(adv)}
	if mvs := len(n.Request.Scenarios) - boolToInt(n.scenarios["pareto"]); mvs > 0 {
		out.Results = make([]ScenarioResult, 0, mvs)
	}
	for _, s := range n.Request.Scenarios {
		var rec core.Recommendation
		switch s {
		case "mv1":
			rec, err = adv.AdviseBudget(n.Budget)
		case "mv2":
			rec, err = adv.AdviseDeadline(n.Limit)
		case "mv3":
			rec, err = adv.AdviseTradeoff(n.Alpha)
		case "pareto":
			out.Pareto, err = adv.ParetoFront(n.Steps)
			if err != nil {
				return ConfigResult{}, err
			}
			continue
		}
		if err != nil {
			return ConfigResult{}, err
		}
		out.Results = append(out.Results, ScenarioResult{Scenario: s, Rec: rec})
	}
	// The budget sweep re-prices MV1 at every sweep budget on the cell's
	// session: the knapsack items and the baseline are already cached and
	// the DP runs on the session's scratch, so each budget costs a merge
	// of a few dozen frontier states plus the exact re-bill.
	if len(n.sweepBudgets) > 0 {
		out.breakEven = make([]budgetOutcome, 0, len(n.sweepBudgets))
		sess := adv.Session()
		for _, b := range n.sweepBudgets {
			t, cost, feasible, err := sess.BudgetOutcome(b)
			if err != nil {
				return ConfigResult{}, err
			}
			out.breakEven = append(out.breakEven, budgetOutcome{time: t, cost: cost, feasible: feasible})
		}
	}
	return out, nil
}

// anyDegraded reports whether any cell carries a deadline-degraded
// recommendation or frontier point.
func anyDegraded(results []ConfigResult) bool {
	for _, cr := range results {
		for _, sr := range cr.Results {
			if sr.Rec.Selection.Degraded {
				return true
			}
		}
		for _, p := range cr.Pareto {
			if p.Degraded {
				return true
			}
		}
	}
	return false
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// better reports whether outcome a beats b under the scenario's ranking:
// mv1 prefers feasible, then faster, then cheaper; mv2 prefers feasible,
// then cheaper, then faster; mv3 minimizes α·T[h] + (1−α)·C[$] (the raw
// Formula 15 objective — cross-provider comparison needs absolute units).
// Key order breaks remaining ties, so rankings are total and
// deterministic.
func better(scenario string, alpha float64, a, b Winner) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	switch scenario {
	case "mv1":
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
	case "mv2":
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
	default: // mv3
		// The float64 conversions round each product before the add, so no port
		// fuses them into one multiply-add (scripts/nofma.sh).
		oa := float64(alpha*a.Time.Hours()) + float64((1-alpha)*a.Cost.Dollars())
		ob := float64(alpha*b.Time.Hours()) + float64((1-alpha)*b.Cost.Dollars())
		if oa != ob {
			return oa < ob
		}
	}
	return a.Key.less(b.Key)
}

func pickWinner(scenario string, alpha float64, configs []ConfigResult) Winner {
	var best Winner
	first := true
	for _, c := range configs {
		rec, ok := c.Result(scenario)
		if !ok {
			continue
		}
		w := Winner{
			Scenario: scenario,
			Key:      c.Key,
			Time:     rec.Selection.Time,
			Cost:     rec.Selection.Bill.Total(),
			Feasible: rec.Selection.Feasible,
		}
		if first || better(scenario, alpha, w, best) {
			best, first = w, false
		}
	}
	return best
}

// mergeFrontiers flattens every configuration's frontier and keeps the
// globally non-dominated points, ordered by time then cost then key.
func mergeFrontiers(configs []ConfigResult) []ParetoEntry {
	var all []ParetoEntry
	for _, c := range configs {
		for _, p := range c.Pareto {
			all = append(all, ParetoEntry{Key: c.Key, Point: p})
		}
	}
	var front []ParetoEntry
	for i, p := range all {
		dominated := false
		for j, q := range all {
			if i == j {
				continue
			}
			if q.Point.Time <= p.Point.Time && q.Point.Cost <= p.Point.Cost &&
				(q.Point.Time < p.Point.Time || q.Point.Cost < p.Point.Cost) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Point.Time != front[j].Point.Time {
			return front[i].Point.Time < front[j].Point.Time
		}
		if front[i].Point.Cost != front[j].Point.Cost {
			return front[i].Point.Cost < front[j].Point.Cost
		}
		return front[i].Key.less(front[j].Key)
	})
	// Collapse duplicate (time, cost) points: keep the first key.
	out := front[:0]
	for _, p := range front {
		if len(out) > 0 && out[len(out)-1].Point.Time == p.Point.Time && out[len(out)-1].Point.Cost == p.Point.Cost {
			continue
		}
		out = append(out, p)
	}
	return out
}

func buildBreakEven(budgets []money.Money, configs []ConfigResult) *BreakEven {
	be := &BreakEven{Budgets: budgets}
	for bi := range budgets {
		var best Winner
		first := true
		for _, c := range configs {
			o := c.breakEven[bi]
			w := Winner{Key: c.Key, Time: o.time, Cost: o.cost, Feasible: o.feasible}
			if first || better("mv1", 0.5, w, best) {
				best, first = w, false
			}
		}
		be.Winners = append(be.Winners, best.Key)
	}
	for i := 1; i < len(be.Winners); i++ {
		if be.Winners[i] != be.Winners[i-1] {
			be.Flips = append(be.Flips, Flip{Budget: budgets[i], From: be.Winners[i-1], To: be.Winners[i]})
		}
	}
	return be
}

// Render produces the human-readable comparison report.
func (c *Comparison) Render() string {
	return string(c.AppendReport(make([]byte, 0, 2048)))
}

// AppendReport appends the Render text to dst.
func (c *Comparison) AppendReport(dst []byte) []byte {
	w := jsonenc.Text{Buf: dst}
	c.appendReport(&w)
	return w.Buf
}

var (
	matrixHeaders    = []string{"configuration", "workload time", "total cost", "feasible", "views"}
	winnerHeaders    = []string{"scenario", "configuration", "workload time", "total cost", "feasible"}
	frontierHeaders  = []string{"configuration", "α", "workload time", "cost", "views"}
	breakEvenHeaders = []string{"budget", "winner"}
)

// appendReport writes the report through w: as Render's text, or as the
// inside of the wire form's "report" string. Scenario, provider and
// instance type names come from the request and go through w's
// escaping, directly or as table cells.
//
//mvlint:hotpath
func (c *Comparison) appendReport(w *jsonenc.Text) {
	var (
		t  report.Table
		sb [64]byte
	)
	for _, s := range c.Scenarios {
		if s == "pareto" {
			continue
		}
		w.Buf = append(w.Buf, "scenario "...)
		w.Str(s)
		w.Buf = append(w.Buf, " — cost/time matrix"...)
		w.Newline()
		t.Reset("", matrixHeaders)
		for i := range c.Configs {
			cfg := &c.Configs[i]
			rec, ok := cfg.Result(s)
			if !ok {
				continue
			}
			t.Cell(cfg.Key.AppendString(sb[:0]))
			t.Cell(report.AppendHours(sb[:0], rec.Selection.Time))
			t.Cell(rec.Selection.Bill.Total().AppendString(sb[:0]))
			t.Cell(strconv.AppendBool(sb[:0], rec.Selection.Feasible))
			t.Cell(strconv.AppendInt(sb[:0], int64(len(rec.Selection.Points)), 10))
			t.EndRow()
		}
		t.AppendText(w)
	}
	if len(c.Winners) > 0 {
		t.Reset("winners", winnerHeaders)
		for i := range c.Winners {
			win := &c.Winners[i]
			t.Cell(append(sb[:0], win.Scenario...))
			t.Cell(win.Key.AppendString(sb[:0]))
			t.Cell(report.AppendHours(sb[:0], win.Time))
			t.Cell(win.Cost.AppendString(sb[:0]))
			t.Cell(strconv.AppendBool(sb[:0], win.Feasible))
			t.EndRow()
		}
		t.AppendText(w)
	}
	if len(c.Pareto) > 0 {
		t.Reset("cross-provider pareto frontier", frontierHeaders)
		for i := range c.Pareto {
			p := &c.Pareto[i]
			t.Cell(p.Key.AppendString(sb[:0]))
			t.Cell(jsonenc.AppendFixed(sb[:0], p.Point.Alpha, 2))
			t.Cell(report.AppendHours(sb[:0], p.Point.Time))
			t.Cell(p.Point.Cost.AppendString(sb[:0]))
			t.Cell(strconv.AppendInt(sb[:0], int64(p.Point.Views), 10))
			t.EndRow()
		}
		t.AppendText(w)
	}
	if c.BreakEven != nil {
		t.Reset("budget break-even sweep (mv1 winner per budget)", breakEvenHeaders)
		for i, b := range c.BreakEven.Budgets {
			t.Cell(b.AppendString(sb[:0]))
			t.Cell(c.BreakEven.Winners[i].AppendString(sb[:0]))
			t.EndRow()
		}
		t.AppendText(w)
		for _, f := range c.BreakEven.Flips {
			w.Buf = append(w.Buf, "winner flips from "...)
			w.Bytes(f.From.AppendString(sb[:0]))
			w.Buf = append(w.Buf, " to "...)
			w.Bytes(f.To.AppendString(sb[:0]))
			w.Buf = append(w.Buf, " at ≈"...)
			w.Buf = f.Budget.AppendString(w.Buf)
			w.Newline()
		}
		if len(c.BreakEven.Flips) == 0 {
			w.Buf = append(w.Buf, "no winner flips across the swept budget range"...)
			w.Newline()
		}
	}
	appendSkipped(w, c.Skipped)
}

// appendSkipped writes the report line naming configurations whose
// instance type the provider does not offer, if there are any.
//
//mvlint:hotpath
func appendSkipped(w *jsonenc.Text, skipped []Key) {
	if len(skipped) == 0 {
		return
	}
	w.Buf = append(w.Buf, "skipped (instance type not offered): "...)
	var sb [64]byte
	for i, k := range skipped {
		if i > 0 {
			w.Buf = append(w.Buf, ", "...)
		}
		w.Bytes(k.AppendString(sb[:0]))
	}
	w.Newline()
}
