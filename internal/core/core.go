// Package core wires the full view-materialization advisor — the paper's
// end-to-end workflow: describe a dataset, a workload and a cloud tariff;
// generate candidate views; and solve one of the three optimization
// scenarios (budget limit, response-time limit, time/cost tradeoff) into a
// concrete recommendation with an itemized bill.
package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/obs"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/report"
	"vmcloud/internal/reuse"
	"vmcloud/internal/schema"
	"vmcloud/internal/search"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// The paper's experimental defaults: what a zero Config or ConfigJSON
// field, and a zero Advisor tariff argument, stands for.
const (
	DefaultInstanceType    = "small"
	DefaultInstances       = 5
	DefaultFactRows        = 200_000_000 // ≈10 GB
	DefaultMonths          = 1
	DefaultCandidateBudget = 8
	DefaultMaintenanceRuns = 4
	DefaultUpdateRatio     = 0.20
	DefaultJobOverhead     = 2 * time.Minute
)

// Config describes an advisory problem. Zero values select the paper's
// experimental defaults.
type Config struct {
	// Provider is the cloud tariff; defaults to AWS2012.
	Provider *pricing.Provider
	// InstanceType names the rented configuration; defaults to "small".
	InstanceType string
	// Instances is the fleet size nbIC; defaults to 5.
	Instances int
	// Schema defaults to the sales star schema.
	Schema *schema.Schema
	// FactRows sizes the dataset; defaults to 200M rows (≈10 GB).
	FactRows int64
	// Months is the billing period; defaults to 1.
	Months float64
	// Workload is required: the queries to optimize for.
	Workload workload.Workload
	// CandidateBudget caps the pre-selected candidate views; default 8.
	CandidateBudget int
	// MaintenanceRuns and UpdateRatio tune the maintenance model;
	// defaults 4 runs/month over 20% churn.
	MaintenanceRuns int
	UpdateRatio     float64
	// MaintenancePolicy selects immediate (default) or deferred refresh.
	MaintenancePolicy views.MaintenancePolicy
	// JobOverhead is the per-job startup floor; default 2 minutes.
	JobOverhead time.Duration
	// Solver selects the optimization engine: SolverKnapsack (default)
	// runs the paper's linearized 0/1 knapsack DPs, SolverSearch runs the
	// exact-evaluator metaheuristics of internal/search, and SolverAuto
	// picks search once the candidate pool exceeds AutoSearchThreshold
	// (where the linearization error starts to bite).
	Solver string
	// Seed drives the search solver's randomized restarts and annealing;
	// identical seeds yield identical recommendations. Ignored by the
	// knapsack solver.
	Seed int64
	// Trace, when non-nil, records per-phase durations of the build and
	// solve pipeline (lattice → candidates → kernel → bind → solve). A
	// nil trace records nothing and costs nothing.
	Trace *obs.Trace
	// Ctx, when non-nil, bounds every search-solver solve by wall clock:
	// at the deadline the search stops at its best incumbent and marks
	// the recommendation Degraded (see search.Options.Ctx). The knapsack
	// solver is not interruptible — its DP is microseconds on any real
	// candidate pool — so knapsack results are never degraded. Nil means
	// no deadline.
	Ctx context.Context
	// Workspace, when non-nil, holds every array the build and the
	// solves need, so that a caller that recycles one (the server does,
	// one per cold request) allocates them once; nil means a new one.
	// Whatever is built on a workspace may be used only until the next
	// build on it (see Workspace).
	Workspace *Workspace
}

// Solver names accepted by Config.Solver and the "solver" wire field.
const (
	SolverKnapsack = "knapsack"
	SolverSearch   = "search"
	SolverAuto     = "auto"
)

// AutoSearchThreshold is the candidate-pool size above which SolverAuto
// switches from the linearized knapsack to metaheuristic search. The
// paper's 16-cuboid sales lattice can never exceed it (at most 15
// non-base cuboids qualify as candidates), so "auto" preserves the
// paper's solver on the paper's setting and flips to search exactly when
// the lattice outgrows it.
const AutoSearchThreshold = 16

// CanonSolver canonicalizes a solver name: trimmed, lower-cased, ""
// mapped to SolverKnapsack, and anything unknown rejected.
func CanonSolver(s string) (string, error) {
	switch c := strings.ToLower(strings.TrimSpace(s)); c {
	case "":
		return SolverKnapsack, nil
	case SolverKnapsack, SolverSearch, SolverAuto:
		return c, nil
	default:
		return "", fmt.Errorf("core: unknown solver %q (want %s, %s or %s)", s, SolverKnapsack, SolverSearch, SolverAuto)
	}
}

// Advisor is a wired advisory session. It is safe for concurrent use:
// the scenario solvers share one mutable kernel session (scratch
// buffers, lazily cached items and baseline, the search engine's
// selection state), so concurrent Advise*/ParetoFront calls are
// serialized on an internal mutex — callers solving one problem under
// several tariffs build one advisor per tariff (core.Shared.Advisor),
// as the comparison engine does.
type Advisor struct {
	Lat        *lattice.Lattice
	Cl         *cluster.Cluster
	Est        *views.Estimator
	W          workload.Workload
	Ev         *optimizer.Evaluator
	Candidates []views.Candidate
	// Solver is the canonicalized engine choice (never "auto": New
	// resolves auto against the candidate count) and Seed the search
	// seed it runs with.
	Solver string
	Seed   int64
	// trace is the optional per-phase span recorder inherited from the
	// Shared; nil-safe.
	trace *obs.Trace
	// cell is the workspace cell the advisor lives in, whose arenas its
	// answers are cut from.
	cell *cell
	// mu serializes solves: the session below owns scratch state.
	mu sync.Mutex
	// sess is the kernel binding the scenario solvers run on: the shared
	// pricing-invariant structure re-priced for this advisor's tariff.
	sess *optimizer.KernelSession
	// names is the Shared candidate-name cache (see Shared.names).
	names []string
	// ctx optionally bounds search solves (see Config.Ctx); nil-safe.
	ctx context.Context
}

// viewName renders a selected cuboid's name, via the shared cache when
// the point is a known candidate.
func (a *Advisor) viewName(p lattice.Point) string {
	if id, err := a.Lat.ID(p); err == nil && a.names[id] != "" {
		return a.names[id]
	}
	return a.Lat.Name(p)
}

// Shared is the pricing-invariant half of an advisory problem: the
// lattice, validated workload, candidate pool and comparison kernel —
// everything a Config implies that no tariff can change. Build it once,
// then stamp out per-tariff advisors with Advisor(): each call rebuilds
// only the cluster, the plan template and the kernel's re-priced time
// scalars, never the lattice or the candidate generation. This is what
// lets cross-provider studies (internal/compare, the /v1/sweep grids)
// fan one problem out over many tariffs at re-bill cost per cell.
//
// A Shared is immutable after construction and safe for concurrent use
// until the next NewShared on its workspace (see Workspace).
type Shared struct {
	Lat        *lattice.Lattice
	W          workload.Workload
	Candidates []views.Candidate
	Kern       *optimizer.ComparisonKernel
	// Solver is canonicalized with "auto" resolved against the candidate
	// count; Seed is the search seed.
	Solver string
	Seed   int64

	months      float64
	datasetSize units.DataSize
	egress      units.DataSize
	maintRuns   int
	updateRatio float64
	policy      views.MaintenancePolicy
	jobOverhead time.Duration
	// names caches the rendered cuboid name of every candidate by
	// lattice id ("" for the rest) — selections only ever contain
	// candidate points, and every tariff cell of a comparison would
	// otherwise re-join the same level strings per recommendation. On the
	// default schema it is workload.SalesNames itself.
	names []string
	// trace is the optional per-phase span recorder; nil-safe, shared by
	// every advisor stamped from this structure (its phase slots are
	// atomic: advisors stamped from one Shared may solve on many
	// goroutines).
	trace *obs.Trace
	// ctx optionally bounds search solves of every stamped advisor (see
	// Config.Ctx); compare's grid also checks it between cells.
	ctx context.Context
	// ws is the workspace the structure was built on, whose cells the
	// advisors take.
	ws *Workspace
}

// NewShared builds the tariff-independent structure of a config. The
// per-tariff fields (Provider, InstanceType, Instances) are ignored
// here; they parameterize Advisor.
func NewShared(cfg Config) (*Shared, error) {
	// Validate the cheap, purely-syntactic fields before any expensive
	// construction (lattice, candidate generation).
	solver, err := CanonSolver(cfg.Solver)
	if err != nil {
		return nil, err
	}
	if cfg.FactRows == 0 {
		cfg.FactRows = DefaultFactRows
	}
	if cfg.Months == 0 {
		cfg.Months = DefaultMonths
	}
	if cfg.CandidateBudget == 0 {
		cfg.CandidateBudget = DefaultCandidateBudget
	}
	if cfg.MaintenanceRuns == 0 {
		cfg.MaintenanceRuns = DefaultMaintenanceRuns
	}
	if cfg.UpdateRatio == 0 {
		cfg.UpdateRatio = DefaultUpdateRatio
	}
	if cfg.JobOverhead == 0 {
		cfg.JobOverhead = DefaultJobOverhead
	}

	ws := cfg.Workspace
	if ws == nil {
		ws = new(Workspace)
	}
	ws.start()

	tr := cfg.Trace
	t0 := tr.StartTimer()
	// The default schema is the sales star schema, whose lattice shape
	// and cuboid names do not depend on the request:
	// only the node statistics are derived per fact-row count.
	var l *lattice.Lattice
	var names []string
	if cfg.Schema == nil {
		l, err = workload.SalesLattice(&ws.lat, cfg.FactRows)
		names = workload.SalesNames()
	} else {
		l, err = lattice.New(cfg.Schema, cfg.FactRows)
	}
	if err != nil {
		return nil, err
	}
	// The one validation of the workload: the candidate pool and the
	// kernel read the query ids it returns.
	var egress units.DataSize
	ws.qids, egress, err = cfg.Workload.Resolve(l, ws.qids[:0])
	if err != nil {
		return nil, err
	}
	tr.ObserveSince(obs.PhaseLattice, t0)
	t0 = tr.StartTimer()
	cands, err := ws.pool.Generate(l, cfg.Workload, ws.qids, cfg.CandidateBudget)
	if err != nil {
		return nil, err
	}
	tr.ObserveSince(obs.PhaseCandidates, t0)
	t0 = tr.StartTimer()
	if err := ws.kern.Pin(l, cfg.Workload, ws.qids, cands); err != nil {
		return nil, err
	}
	tr.ObserveSince(obs.PhaseKernel, t0)
	if solver == SolverAuto {
		solver = SolverKnapsack
		if len(cands) > AutoSearchThreshold {
			solver = SolverSearch
		}
	}
	if names == nil {
		names = reuse.Zeroed(ws.names, l.NumNodes())
		ws.names = names
		for _, c := range cands {
			if id, err := l.ID(c.Point); err == nil {
				names[id] = l.Name(c.Point)
			}
		}
	}
	ws.sh = Shared{
		Lat:         l,
		W:           cfg.Workload,
		Candidates:  cands,
		Kern:        &ws.kern,
		Solver:      solver,
		Seed:        cfg.Seed,
		months:      cfg.Months,
		datasetSize: l.NodeByID(0).Size,
		egress:      egress,
		maintRuns:   cfg.MaintenanceRuns,
		updateRatio: cfg.UpdateRatio,
		policy:      cfg.MaintenancePolicy,
		jobOverhead: cfg.JobOverhead,
		names:       names,
		trace:       tr,
		ctx:         cfg.Ctx,
		ws:          ws,
	}
	return &ws.sh, nil
}

// Advisor re-prices the shared problem for one tariff: provider ×
// instance type × fleet size. Zero values select the paper's defaults
// ("small", 5). The returned advisor is bit-identical in behavior to
// New with the same parameters — construction path is shared — but
// costs only the tariff-dependent rebuild.
func (sh *Shared) Advisor(prov pricing.Provider, instanceType string, instances int) (*Advisor, error) {
	t0 := sh.trace.StartTimer()
	if instanceType == "" {
		instanceType = DefaultInstanceType
	}
	if instances == 0 {
		instances = DefaultInstances
	}
	c := sh.ws.cell()
	if err := c.cl.Set(prov, instanceType, instances); err != nil {
		return nil, err
	}
	c.cl.JobOverhead = sh.jobOverhead
	c.est = views.Estimator{
		Lat:             sh.Lat,
		Cl:              &c.cl,
		UpdateRatio:     sh.updateRatio,
		MaintenanceRuns: sh.maintRuns,
		Policy:          sh.policy,
	}
	base := costmodel.Plan{
		Cluster:       &c.cl,
		Months:        sh.months,
		DatasetSize:   sh.datasetSize,
		MonthlyEgress: sh.egress,
	}
	// optimizer.NewEvaluator without its check of the workload, which
	// NewShared validated against this lattice.
	if err := base.Validate(); err != nil {
		return nil, err
	}
	c.ev = optimizer.Evaluator{Est: &c.est, W: sh.W, Base: base}
	if err := c.sess.Bind(sh.Kern, &c.ev); err != nil {
		return nil, err
	}
	sh.trace.ObserveSince(obs.PhaseBind, t0)
	c.adv = Advisor{
		Lat:        sh.Lat,
		Cl:         &c.cl,
		Est:        &c.est,
		W:          sh.W,
		Ev:         &c.ev,
		Candidates: sh.Candidates,
		Solver:     sh.Solver,
		Seed:       sh.Seed,
		trace:      sh.trace,
		cell:       c,
		sess:       &c.sess,
		names:      sh.names,
		ctx:        sh.ctx,
	}
	return &c.adv, nil
}

// New builds an advisor from a config: the shared structure plus one
// tariff binding.
func New(cfg Config) (*Advisor, error) {
	sh, err := NewShared(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Provider != nil {
		return sh.Advisor(*cfg.Provider, cfg.InstanceType, cfg.Instances)
	}
	return sh.Advisor(pricing.AWS2012(), cfg.InstanceType, cfg.Instances)
}

// Session exposes the advisor's kernel binding: the Section 5 scenario
// solvers over the shared structure, re-priced for this tariff, plus
// the incremental engine the search solvers reuse. The comparison
// engine's break-even sweeps run on it directly. The session owns
// mutable scratch (it is what the advisor's mutex guards), so callers
// must not use it concurrently with the advisor's own solvers.
func (a *Advisor) Session() *optimizer.KernelSession { return a.sess }

// Recommendation is a solved scenario with context for reporting.
type Recommendation struct {
	Scenario     string
	Selection    optimizer.Selection
	BaselineTime time.Duration
	BaselineBill costmodel.Bill
	ViewNames    []string
}

// TimeImprovement is (Tbase − Twith)/Tbase.
func (r Recommendation) TimeImprovement() float64 {
	if r.BaselineTime <= 0 {
		return 0
	}
	return float64(r.BaselineTime-r.Selection.Time) / float64(r.BaselineTime)
}

// CostImprovement is (Cbase − Cwith)/Cbase; negative means views cost more.
func (r Recommendation) CostImprovement() float64 {
	base := r.BaselineBill.Total().Dollars()
	if base <= 0 {
		return 0
	}
	return (base - r.Selection.Bill.Total().Dollars()) / base
}

// Render produces a human-readable report.
func (r Recommendation) Render() string {
	return string(r.AppendReport(make([]byte, 0, 1024)))
}

// AppendReport appends the Render text to dst.
func (r Recommendation) AppendReport(dst []byte) []byte {
	w := jsonenc.Text{Buf: dst}
	r.appendReport(&w)
	return w.Buf
}

var recommendationHeaders = []string{"", "workload time", "total cost", "compute", "storage", "transfer"}

// appendReport writes the report through w: as Render's text, or — the
// served route — as the inside of the wire form's "report" string. The
// scenario and the view names come from the request and go through w's
// escaping, as the table's cells do.
//
//mvlint:hotpath
func (r *Recommendation) appendReport(w *jsonenc.Text) {
	r.appendReportHead(w)
	r.appendReportBody(w, nil)
}

// appendReportHead writes the report's first line: the scenario and
// whether its constraint is met.
//
//mvlint:hotpath
func (r *Recommendation) appendReportHead(w *jsonenc.Text) {
	w.Buf = append(w.Buf, "Scenario "...)
	w.Str(r.Scenario)
	w.Buf = append(w.Buf, " — "...)
	w.Buf = append(w.Buf, feasibility(r.Selection.Feasible)...)
	w.Newline()
}

// appendReportBody writes the rest of the report, which the answer
// alone decides: the baseline, the selection's time and bill, the gains
// and the views. Through a JSON sink, views is the inside of the views
// member AppendWire wrote, whose names the materialize line copies as
// they are escaped there; through a raw sink it is nil.
//
//mvlint:hotpath
func (r *Recommendation) appendReportBody(w *jsonenc.Text, views []byte) {
	var t report.Table
	t.Headers = recommendationHeaders
	billRow(&t, "without views", r.BaselineTime, &r.BaselineBill)
	billRow(&t, "with views", r.Selection.Time, &r.Selection.Bill)
	t.AppendText(w)
	w.Buf = append(w.Buf, "time improvement: "...)
	w.Buf = report.AppendPercent(w.Buf, r.TimeImprovement())
	w.Buf = append(w.Buf, "   cost improvement: "...)
	w.Buf = report.AppendPercent(w.Buf, r.CostImprovement())
	w.Newline()
	w.Buf = append(w.Buf, "materialize: "...)
	switch {
	case len(r.ViewNames) == 0:
		w.Buf = append(w.Buf, "nothing"...)
	case views != nil:
		w.Buf = appendListed(w.Buf, views)
	default:
		for i, name := range r.ViewNames {
			if i > 0 {
				w.Buf = append(w.Buf, ", "...)
			}
			w.Str(name)
		}
	}
	w.Newline()
}

// appendListed appends the strings of list, the inside of a JSON array
// of strings as jsonenc writes it, still escaped and without their
// quotes, joined by ", ". A quote inside an escaped string always
// follows an odd run of backslashes, so the first quote after an even
// run (or none) closes the string.
//
//mvlint:hotpath
func appendListed(dst, list []byte) []byte {
	for start := 1; start < len(list); start += 3 { // past `","`
		end := start
		for {
			end += bytes.IndexByte(list[end:], '"')
			run := end
			for run > start && list[run-1] == '\\' {
				run--
			}
			if (end-run)%2 == 0 {
				break
			}
			end++
		}
		if start > 1 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, list[start:end]...)
		start = end
	}
	return dst
}

// billRow adds one configuration's time and bill breakdown to t.
//
//mvlint:hotpath
func billRow(t *report.Table, label string, d time.Duration, b *costmodel.Bill) {
	var sb [32]byte
	t.Cell(append(sb[:0], label...))
	t.Cell(report.AppendHours(sb[:0], d))
	t.Cell(b.Total().AppendString(sb[:0]))
	t.Cell(b.Compute.Total().AppendString(sb[:0]))
	t.Cell(b.Storage.AppendString(sb[:0]))
	t.Cell(b.Transfer.AppendString(sb[:0]))
	t.EndRow()
}

func feasibility(ok bool) string {
	if ok {
		return "constraint satisfied"
	}
	return "CONSTRAINT NOT SATISFIABLE (best effort shown)"
}

func (a *Advisor) recommend(scenario string, sel optimizer.Selection) (Recommendation, error) {
	baseT, baseBill, err := a.sess.Base()
	if err != nil {
		return Recommendation{}, err
	}
	names := a.cell.names.Cut(len(sel.Points))
	for i, p := range sel.Points {
		names[i] = a.viewName(p)
	}
	return Recommendation{
		Scenario:     scenario,
		Selection:    sel,
		BaselineTime: baseT,
		BaselineBill: baseBill,
		ViewNames:    names,
	}, nil
}

// PlanFor reconstructs the priced plan behind a selection, enabling
// itemized invoice rendering (costmodel.Itemize).
func (a *Advisor) PlanFor(sel optimizer.Selection) costmodel.Plan {
	return a.Ev.Base.WithViews(
		a.Est.ViewsSize(sel.Points),
		a.Est.WorkloadTime(a.W, sel.Points),
		a.Est.MaintenanceTimeForWorkload(sel.Points, a.W),
		a.Est.TotalMaterializationTime(sel.Points),
	)
}

// useSearch reports whether the advisor dispatches to the metaheuristic
// engine, and searchOpts its deterministic configuration.
func (a *Advisor) useSearch() bool { return a.Solver == SolverSearch }

// searchOpts shares the session's pinned incremental engine with the
// search solvers, so a search solve re-prices over the kernel's
// answering lists instead of rebuilding them.
func (a *Advisor) searchOpts() search.Options {
	return search.Options{Seed: a.Seed, Engine: a.sess.Engine(), Ctx: a.ctx}
}

// advise runs one scenario through the configured engine and wraps the
// selection into a recommendation — the single dispatch point between
// the knapsack DPs and the metaheuristic search, both handed the same
// scenario. The search path first solves the (cheap) linearized knapsack
// and warm-starts from its selection, so a search recommendation is
// never worse than the knapsack's under the exact re-priced objective —
// the guarantee the large-lattice experiments assert, held on the
// product path.
func (a *Advisor) advise(label string, sc optimizer.Scenario) (Recommendation, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t0 := a.trace.StartTimer()
	sel, err := a.sess.Solve(sc)
	if err == nil && a.useSearch() {
		opts := a.searchOpts()
		opts.Starts = [][]lattice.Point{sel.Points}
		sel, err = search.Solve(a.Ev, a.Candidates, sc, opts)
	}
	a.trace.ObserveSince(obs.PhaseSolve, t0)
	if err != nil {
		return Recommendation{}, err
	}
	return a.recommend(label, sel)
}

// AdviseBudget solves scenario MV1: fastest workload within the budget.
func (a *Advisor) AdviseBudget(budget money.Money) (Recommendation, error) {
	return a.advise("MV1 (budget limit)", optimizer.Budget(budget))
}

// AdviseDeadline solves scenario MV2: cheapest bill within the time limit.
func (a *Advisor) AdviseDeadline(limit time.Duration) (Recommendation, error) {
	return a.advise("MV2 (response-time limit)", optimizer.Deadline(limit))
}

// AdviseTradeoff solves scenario MV3 with the given α weight on time.
func (a *Advisor) AdviseTradeoff(alpha float64) (Recommendation, error) {
	sc, err := optimizer.Tradeoff(alpha, optimizer.RawTradeoff, 0, costmodel.Bill{})
	if err != nil {
		return Recommendation{}, err
	}
	return a.advise("MV3 (tradeoff, α="+strconv.FormatFloat(alpha, 'g', 2, 64)+")", sc)
}

// ParetoPoint is one (time, cost) outcome on the tradeoff frontier.
type ParetoPoint struct {
	Alpha float64
	Time  time.Duration
	Cost  money.Money
	Views int
	// Degraded marks a point whose search stopped at the solve deadline
	// (see Config.Ctx); the point is still exactly priced and never
	// worse than its knapsack warm start.
	Degraded bool
}

// ParetoFront sweeps α over [0,1] in the given number of steps and returns
// the non-dominated (time, cost) outcomes — the frontier Figures 2–4 of
// the paper sketch.
func (a *Advisor) ParetoFront(steps int) ([]ParetoPoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("core: need at least 2 sweep steps, got %d", steps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t0 := a.trace.StartTimer()
	defer a.trace.ObserveSince(obs.PhaseSolve, t0)
	// The knapsack and the search sweep the same scenarios, α over [0,1]
	// in normalized Formula 15. The knapsack's selections are the frontier
	// or, under search, its warm starts: the search frontier is then never
	// worse than the knapsack's at any α (warm starts are priced first;
	// cached re-scores are free).
	baseT, baseBill, err := a.sess.Base()
	if err != nil {
		return nil, err
	}
	c := a.cell
	c.scs = reuse.Zeroed(c.scs, steps)
	c.sels = reuse.Zeroed(c.sels, steps)
	scs, sels := c.scs, c.sels
	for i := range scs {
		if scs[i], err = optimizer.Tradeoff(float64(i)/float64(steps-1), optimizer.NormalizedTradeoff, baseT, baseBill); err != nil {
			return nil, err
		}
		if sels[i], err = a.sess.Solve(scs[i]); err != nil {
			return nil, err
		}
	}
	if a.useSearch() {
		// ParetoSweep's evaluation budget spans the whole sweep; scale it
		// by the step count so every α gets a real search, not just the
		// first few before the shared budget runs dry. Warm starts are
		// deduplicated (adjacent α often agree) under a collision-free
		// level-index key.
		opts := a.searchOpts()
		opts.MaxEvals = steps * search.DefaultMaxEvals
		seen := make(map[string]bool)
		for _, ksel := range sels {
			key := fmt.Sprintf("%v", ksel.Points)
			if !seen[key] {
				seen[key] = true
				opts.Starts = append(opts.Starts, ksel.Points)
			}
		}
		if sels, err = search.ParetoSweep(a.Ev, a.Candidates, scs, opts); err != nil {
			return nil, err
		}
	}
	c.all = reuse.Zeroed(c.all, len(sels))
	all := c.all
	for i, sel := range sels {
		all[i] = ParetoPoint{
			Alpha:    float64(i) / float64(steps-1),
			Time:     sel.Time,
			Cost:     sel.Bill.Total(),
			Views:    len(sel.Points),
			Degraded: sel.Degraded,
		}
	}
	c.order = reuse.Zeroed(c.order, 2*len(all))
	return NonDominated(c.front.Cut(len(all))[:0], all, func(p ParetoPoint) ParetoPoint { return p }, c.order), nil
}

// NonDominated appends to front, in input order, the items whose point
// no other item's point dominates — is no slower, no dearer, and
// strictly better on one of the two: a sweep's frontier, or a
// comparison's across cells. Two items at one point both stay; neither
// dominates the other. scratch is 2×len(all) ints of scratch, made here
// when it is shorter.
//
// An item is dominated exactly when a faster one costs no more, or an
// equally fast one costs less. So the items are sorted by time, then
// cost, and swept once with the least cost of the faster items: in a run
// of equal times the first costs least, and every later one dearer than
// it is dominated, as is every one that faster least cost reaches.
func NonDominated[T any](front, all []T, point func(T) ParetoPoint, scratch []int) []T {
	n := len(all)
	if cap(scratch) < 2*n {
		scratch = make([]int, 2*n)
	}
	order, dominated := scratch[:n], scratch[n:2*n]
	for i := range order {
		order[i], dominated[i] = i, 0
	}
	slices.SortFunc(order, func(i, j int) int {
		p, q := point(all[i]), point(all[j])
		return cmp.Or(cmp.Compare(p.Time, q.Time), cmp.Compare(p.Cost, q.Cost))
	})
	var faster money.Money // the least cost of the items faster than the run
	for g := 0; g < n; {
		first := point(all[order[g]])
		h := g
		for ; h < n; h++ {
			p := point(all[order[h]])
			if p.Time != first.Time {
				break
			}
			if g > 0 && faster <= p.Cost || p.Cost > first.Cost {
				dominated[order[h]] = 1
			}
		}
		if g == 0 || first.Cost < faster {
			faster = first.Cost
		}
		g = h
	}
	for i, p := range all {
		if dominated[i] == 0 {
			front = append(front, p)
		}
	}
	return front
}
