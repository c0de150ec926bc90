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
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/report"
	"vmcloud/internal/units"
)

// Scenario names accepted by Request.Scenarios, in canonical order.
var scenarioOrder = []string{"mv1", "mv2", "mv3", "pareto"}

// Defaults shared by the native (Request) and wire (RequestJSON)
// normalization paths — change them here and both stay in sync.
const (
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
	var want [4]bool // indexed as scenarioOrder
	if len(explicit) == 0 {
		want[0], want[1], want[2] = haveBudget, haveLimit, true
	}
	for _, s := range explicit {
		i := slices.Index(scenarioOrder, s)
		if i < 0 {
			return nil, fmt.Errorf("compare: unknown scenario %q (want mv1, mv2, mv3 or pareto)", s)
		}
		want[i] = true
	}
	out := make([]string, 0, len(want))
	for i, s := range scenarioOrder {
		if want[i] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Request describes a cross-provider comparison: one advisory problem
// (the embedded core.Config) priced on every cell of a provider ×
// instance type × fleet size grid. It mirrors its wire form,
// RequestJSON. Zero values follow the repo convention of selecting the
// paper's experimental defaults.
type Request struct {
	// Config is the advisory problem every cell prices; Workload is
	// required. Its tariff fields (Provider, InstanceType, Instances)
	// must be left zero, as the grid lists below replace them, and so
	// must Schema: a grid prices the sales schema only. Trace and Ctx
	// span the whole fan-out: Trace accumulates every cell's phases (its
	// slots are atomic), and cells not yet started when Ctx expires are
	// abandoned (Run returns the context error) while search cells in
	// flight stop at their best incumbent, marking the comparison
	// Degraded.
	core.Config

	// Providers are the tariffs to compare, read and never written or
	// reordered; empty means the full built-in catalog.
	Providers []pricing.Provider
	// InstanceTypes are the configuration names to try on each provider;
	// empty means {"small"}. Types a provider does not offer are skipped
	// (recorded in Comparison.Skipped).
	InstanceTypes []string
	// FleetSizes are the cluster sizes (nbIC) to try; empty means {5}.
	FleetSizes []int

	// Scenarios selects which objectives to solve per configuration, from
	// "mv1", "mv2", "mv3" and "pareto". Empty derives the set from the
	// parameters given: mv1 when Budget > 0, mv2 when Limit > 0, and mv3
	// always (pareto only when named explicitly).
	Scenarios []string
	// Budget is the MV1 spending limit; required when mv1 is requested.
	Budget money.Money
	// Limit is the MV2 response-time limit; required when mv2 is requested.
	Limit time.Duration
	// Alpha is the MV3 weight on time in [0,1]; nil selects 0.5.
	Alpha *float64
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

// compare orders keys by provider, instance type, then fleet size.
func (k Key) compare(o Key) int {
	return cmp.Or(cmp.Compare(k.Provider, o.Provider), cmp.Compare(k.InstanceType, o.InstanceType), cmp.Compare(k.Instances, o.Instances))
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

	// sweepSolves counts the MV1 solves the break-even sweep ran: its
	// work count, which the bound keeps below cells × budgets.
	sweepSolves int
}

// normalized is a validated request with every default applied.
type normalized struct {
	Request
	scenarios    map[string]bool
	alpha        float64
	tradeoff     optimizer.Scenario // mv3 in raw Formula 15, the units tariffs share
	sweepBudgets []money.Money
}

func (r Request) normalize() (normalized, error) {
	switch {
	case r.Provider != nil:
		return normalized{}, fmt.Errorf("compare: use Providers (a list) instead of Config.Provider")
	case r.InstanceType != "":
		return normalized{}, fmt.Errorf("compare: use InstanceTypes (a list) instead of Config.InstanceType")
	case r.Instances != 0:
		return normalized{}, fmt.Errorf("compare: use FleetSizes (a list) instead of Config.Instances")
	case r.Schema != nil:
		return normalized{}, fmt.Errorf("compare: Config.Schema must be nil (a grid prices the sales schema only)")
	}
	n := normalized{Request: r, scenarios: map[string]bool{}, alpha: defaultAlpha}
	// Cells only read the tariffs, so they alias the caller's or the
	// catalog's; the slice is copied so the sort leaves the caller's alone.
	providers := slices.Clone(n.Providers)
	if len(providers) == 0 {
		for _, name := range pricing.ProviderNames() {
			p, err := pricing.LookupShared(name)
			if err != nil {
				return normalized{}, err
			}
			providers = append(providers, p)
		}
	}
	seen := map[string]bool{}
	for _, p := range providers {
		if err := p.Validate(); err != nil {
			return normalized{}, err
		}
		if seen[p.Name] {
			return normalized{}, fmt.Errorf("compare: duplicate provider %q", p.Name)
		}
		seen[p.Name] = true
	}
	// In name order, as the grid lists below are sorted, so that cells
	// expands the grid in key order as it stands.
	slices.SortFunc(providers, func(a, b pricing.Provider) int { return cmp.Compare(a.Name, b.Name) })
	n.Providers = providers
	if len(n.InstanceTypes) == 0 {
		n.InstanceTypes = []string{core.DefaultInstanceType}
	}
	n.InstanceTypes = dedupeSorted(n.InstanceTypes)
	if len(n.FleetSizes) == 0 {
		n.FleetSizes = []int{core.DefaultInstances}
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
	if n.Alpha != nil {
		n.alpha = *n.Alpha
	}
	if n.tradeoff, err = optimizer.Tradeoff(n.alpha, optimizer.RawTradeoff, 0, costmodel.Bill{}); err != nil {
		return normalized{}, fmt.Errorf("compare: %w", err)
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
	if n.scenarios["mv1"] && n.BreakEvenSteps == 1 {
		return normalized{}, errBreakEvenSteps(n.BreakEvenSteps)
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

// errBreakEvenSteps rejects a break-even sweep of one budget, which
// could locate no flip.
func errBreakEvenSteps(steps int) error {
	return fmt.Errorf("compare: break-even needs at least 2 steps, got %d", steps)
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

// cells expands the provider × instance × fleet grid in key order,
// separating configurations whose instance type the provider does not
// offer. normalize sorted all three lists.
func (n normalized) cells() (keys []Key, providers []pricing.Provider, skipped []Key) {
	size := len(n.Providers) * len(n.InstanceTypes) * len(n.FleetSizes)
	keys, providers = make([]Key, 0, size), make([]pricing.Provider, 0, size)
	for _, p := range n.Providers {
		for _, it := range n.InstanceTypes {
			_, offered := p.Compute.Instances[it]
			for _, f := range n.FleetSizes {
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
	results, sessions, skipped, err := n.solveGrid()
	if err != nil {
		return nil, err
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
		comp.Winners = append(comp.Winners, pickWinner(s, n.scenario(s), results))
	}
	if len(n.sweepBudgets) > 0 {
		if comp.BreakEven, comp.sweepSolves, err = breakEven(n.Ctx, n.sweepBudgets, results, sessions); err != nil {
			return nil, err
		}
	}
	return comp, nil
}

// solveGrid builds the shared structure once and solves every runnable
// cell of the grid on it, on the bounded worker pool — the one grid solve
// of Run and RunSweep. With a break-even sweep to run, it returns each
// cell's session beside its result, for the sweep to go on solving on
// once the pool is done.
func (n normalized) solveGrid() ([]ConfigResult, []*optimizer.KernelSession, []Key, error) {
	keys, providers, skipped := n.cells()
	if len(keys) == 0 {
		return nil, nil, nil, fmt.Errorf("compare: no runnable configurations (every provider × instance pairing was skipped)")
	}
	shared, err := core.NewShared(n.Config)
	if err != nil {
		return nil, nil, nil, err
	}
	results := make([]ConfigResult, len(keys))
	var sessions []*optimizer.KernelSession
	if len(n.sweepBudgets) > 0 {
		sessions = make([]*optimizer.KernelSession, len(keys))
	}
	errs := make([]error, len(keys))
	fanOut(n.Workers, len(keys), func(i int) {
		// Cooperative cancellation between cells: a cell that has not
		// started when the deadline passes is abandoned outright (cells in
		// flight stop via the search solver's own deadline gate).
		if n.Ctx != nil && n.Ctx.Err() != nil {
			errs[i] = n.Ctx.Err()
			return
		}
		var sess *optimizer.KernelSession
		results[i], sess, errs[i] = n.solveCell(shared, keys[i], providers[i])
		if sessions != nil {
			sessions[i] = sess
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("compare: %s: %w", keys[i], err)
		}
	}
	return results, sessions, skipped, nil
}

// solveCell re-prices the shared structure for one tariff cell and
// solves every requested scenario on it. Each cell owns its advisor (a
// per-tariff kernel binding over the read-only shared structure), so
// cells are fully independent and safe to run concurrently.
func (n normalized) solveCell(shared *core.Shared, k Key, prov pricing.Provider) (ConfigResult, *optimizer.KernelSession, error) {
	adv, err := shared.Advisor(prov, k.InstanceType, k.Instances)
	if err != nil {
		return ConfigResult{}, nil, err
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
			rec, err = adv.AdviseTradeoff(n.alpha)
		case "pareto":
			out.Pareto, err = adv.ParetoFront(n.Steps)
			if err != nil {
				return ConfigResult{}, nil, err
			}
			continue
		}
		if err != nil {
			return ConfigResult{}, nil, err
		}
		out.Results = append(out.Results, ScenarioResult{Scenario: s, Rec: rec})
	}
	return out, adv.Session(), nil
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

// scenario is the named scenario at the request's parameters.
func (n normalized) scenario(name string) optimizer.Scenario {
	switch name {
	case "mv1":
		return optimizer.Budget(n.Budget)
	case "mv2":
		return optimizer.Deadline(n.Limit)
	}
	return n.tradeoff
}

// outranks reports whether w beats best under sc, the cell key breaking
// the order's ties, so rankings are total and deterministic.
func (w Winner) outranks(sc optimizer.Scenario, best Winner) bool {
	a, b := optimizer.Outcome{Time: w.Time, Cost: w.Cost}, optimizer.Outcome{Time: best.Time, Cost: best.Cost}
	return cmp.Or(sc.Compare(a, b), w.Key.compare(best.Key)) < 0
}

func pickWinner(name string, sc optimizer.Scenario, configs []ConfigResult) (best Winner) {
	for _, c := range configs {
		rec, ok := c.Result(name)
		if !ok {
			continue
		}
		w := Winner{
			Scenario: name,
			Key:      c.Key,
			Time:     rec.Selection.Time,
			Cost:     rec.Selection.Bill.Total(),
			Feasible: rec.Selection.Feasible,
		}
		if best.Provider == "" || w.outranks(sc, best) {
			best = w
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
	front := core.NonDominated(all, func(e ParetoEntry) core.ParetoPoint { return e.Point })
	sort.Slice(front, func(i, j int) bool {
		p, q := front[i], front[j]
		return cmp.Or(cmp.Compare(p.Point.Time, q.Point.Time), cmp.Compare(p.Point.Cost, q.Point.Cost), p.Key.compare(q.Key)) < 0
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

// breakEven sweeps the mv1 budgets over the solved cells and names the
// winner at each: the feasible cell with the least time, then the least
// cost, then the first key, or, when no cell's baseline fits the budget,
// the infeasible baseline that wins by the same order.
//
// Only cells that can win are solved. A cell whose baseline busts the
// budget is its infeasible baseline, with no solve. Every other cell
// returns a feasible answer, since the MV1 repair stops at the baseline
// at worst, and none faster than its MinTime. So the cells are solved in
// ascending (MinTime, key) order, and the first whose MinTime exceeds
// the best time found ends the budget's pass: it and every cell after it
// can neither win nor tie. The sessions are the cells' own, used here
// after the fan-out has finished with them. Like the fan-out between
// cells, the sweep gives up between budgets once ctx (nil for none) is
// done. It returns the sweep and the number of solves it ran.
func breakEven(ctx context.Context, budgets []money.Money, configs []ConfigResult, sessions []*optimizer.KernelSession) (*BreakEven, int, error) {
	type cell struct {
		baseT    time.Duration
		baseCost money.Money
		minT     time.Duration
	}
	cells := make([]cell, len(configs))
	order := make([]int, len(configs))
	for i, sess := range sessions {
		baseT, baseBill, err := sess.Base()
		if err != nil {
			return nil, 0, fmt.Errorf("compare: %s: %w", configs[i].Key, err)
		}
		cells[i] = cell{baseT: baseT, baseCost: baseBill.Total(), minT: sess.MinTime()}
		order[i] = i
	}
	// configs is in key order, so a stable sort by MinTime is the
	// (MinTime, key) order.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cells[a].minT, cells[b].minT) })
	be := &BreakEven{Budgets: budgets, Winners: make([]Key, 0, len(budgets))}
	solves := 0
	for _, b := range budgets {
		if ctx != nil && ctx.Err() != nil {
			return nil, 0, fmt.Errorf("compare: break-even sweep: %w", ctx.Err())
		}
		sc := optimizer.Budget(b)
		var best Winner
		offer := func(w Winner) {
			if best.Provider == "" || w.outranks(sc, best) {
				best = w
			}
		}
		for i, c := range cells {
			if c.baseCost > b {
				offer(Winner{Key: configs[i].Key, Time: c.baseT, Cost: c.baseCost})
			}
		}
		bestT := time.Duration(math.MaxInt64)
		for _, i := range order {
			if cells[i].baseCost > b {
				continue
			}
			if cells[i].minT > bestT {
				break
			}
			t, cost, feasible, err := sessions[i].BudgetOutcome(b)
			if err != nil {
				return nil, 0, fmt.Errorf("compare: %s: %w", configs[i].Key, err)
			}
			solves++
			if feasible {
				bestT = min(bestT, t)
			}
			offer(Winner{Key: configs[i].Key, Time: t, Cost: cost, Feasible: feasible})
		}
		be.Winners = append(be.Winners, best.Key)
	}
	for i := 1; i < len(be.Winners); i++ {
		if be.Winners[i] != be.Winners[i-1] {
			be.Flips = append(be.Flips, Flip{Budget: budgets[i], From: be.Winners[i-1], To: be.Winners[i]})
		}
	}
	return be, solves, nil
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
