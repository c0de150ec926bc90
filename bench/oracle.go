package main

// oracle.go checks served answers, off the clock. The failure mode of an
// advisor is confidently wrong advice, so every kept response is decoded
// and its time and bill are rebuilt from the returned points with
// optimizer.Evaluator.Evaluate — the ROADMAP-designated oracle, a code
// path the served KernelSession solvers do not use — and the claimed
// feasibility is re-derived from the rebuilt numbers. A fixed number of
// answers per workload is also compared with the exhaustive optimum, so
// advice_gap_pct repeats exactly for a given seed.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/search"
	"vmcloud/internal/server"
)

// Exhaustive comparisons per workload: a count, not a time budget, so
// the gap is a pure function of the seed. 2^8 exact evaluations each on
// the wire; a 10×-budget reference search each on the big lattice.
const (
	gapChecksWire   = 120
	gapChecksSearch = 6
)

type oracle struct {
	checked int // recommendations whose bill was rebuilt
	wrong   int
	notes   []string // first few violations, for the report

	gapLeft int
	gapSum  float64 // Σ relative objective gaps, as fractions
	gapN    int
	// missedFeasible counts answers marked infeasible where the
	// exhaustive search found a feasible selection: honest, but a miss.
	missedFeasible int
	// nontrivial counts feasible answers that select at least one view
	// (pareto: a frontier of at least two points).
	nontrivial, answers int

	sch *schema.Schema // search-large's synthetic schema, built once
}

func newOracle(gapChecks int) *oracle { return &oracle{gapLeft: gapChecks} }

func (o *oracle) fail(format string, args ...any) {
	o.wrong++
	if len(o.notes) < 5 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func (o *oracle) gapPct() float64 {
	if o.gapN == 0 {
		return 0
	}
	return 100 * o.gapSum / float64(o.gapN)
}

func (o *oracle) nontrivialRatio() float64 {
	if o.answers == 0 {
		return 0
	}
	return float64(o.nontrivial) / float64(o.answers)
}

// check verifies one kept response against the request that produced
// it.
func (o *oracle) check(f *firstReply) {
	var err error
	switch {
	case f.req.search != nil:
		err = o.checkSearch(f.req.search, f.body)
	case f.req.endpoint == "advise":
		err = o.checkAdvise(f.req.body, f.body)
	case f.req.endpoint == "compare":
		err = o.checkCompare(f.req.body, f.body)
	case f.req.endpoint == "sweep":
		err = o.checkSweep(f.req.body, f.body)
	default:
		err = fmt.Errorf("no checker for endpoint %q", f.req.endpoint)
	}
	if err != nil {
		o.fail("%s #%d: %v", f.req.endpoint, f.req.id, err)
	}
}

// params are the scenario parameters a recommendation must honour.
type params struct {
	scenario string
	budget   money.Money
	limit    time.Duration
	alpha    float64
}

func (p params) objective(t time.Duration, b costmodel.Bill) float64 {
	switch p.scenario {
	case "mv1":
		return t.Hours()
	case "mv2":
		return b.Total().Dollars()
	}
	// The served mv3 is Formula 15 in raw units (core.AdviseTradeoff).
	return optimizer.Objective(p.alpha, t, b, optimizer.RawTradeoff, 0, costmodel.Bill{})
}

func (p params) met(t time.Duration, b costmodel.Bill) bool {
	switch p.scenario {
	case "mv1":
		return b.Total() <= p.budget
	case "mv2":
		return t <= p.limit
	}
	return true
}

func billMatches(got core.BillJSON, want costmodel.Bill) bool {
	return got == core.NewBillJSON(want)
}

// checkRec rebuilds one recommendation's numbers on adv's evaluator.
// where names the answer in failure notes.
func (o *oracle) checkRec(adv *core.Advisor, p params, rj *core.RecommendationJSON, where string) {
	o.checked++
	o.answers++
	pts := pointsOf(rj.Points)
	for _, pt := range pts {
		if _, err := adv.Lat.Node(pt); err != nil {
			o.fail("%s: returned point %v is not a cuboid: %v", where, pt, err)
			return
		}
	}
	if len(rj.Views) != len(pts) {
		o.fail("%s: %d view names for %d points", where, len(rj.Views), len(pts))
		return
	}
	for i, pt := range pts {
		if want := adv.Lat.Name(pt); rj.Views[i] != want {
			o.fail("%s: view %d is named %q but its point %v is %q", where, i, rj.Views[i], pt, want)
			return
		}
	}
	t, bill, err := adv.Ev.Evaluate(pts)
	if err != nil {
		o.fail("%s: oracle cannot price the returned points: %v", where, err)
		return
	}
	if t.Hours() != rj.Hours || !billMatches(rj.Bill, bill) {
		o.fail("%s: reported %.6fh %v, but the returned points price to %.6fh %v",
			where, rj.Hours, rj.Bill.Total, t.Hours(), bill.Total())
		return
	}
	bt, bb, err := adv.Ev.Evaluate(nil)
	if err != nil {
		o.fail("%s: oracle cannot price the baseline: %v", where, err)
		return
	}
	if bt.Hours() != rj.Base.Hours || !billMatches(rj.Base.Bill, bb) {
		o.fail("%s: reported baseline %.6fh %v, oracle says %.6fh %v",
			where, rj.Base.Hours, rj.Base.Bill.Total, bt.Hours(), bb.Total())
		return
	}
	if met := p.met(t, bill); met != rj.Feasible {
		o.fail("%s: feasible=%v but the %s constraint is met=%v on the rebuilt bill", where, rj.Feasible, p.scenario, met)
		return
	}
	if rj.Feasible && len(pts) > 0 {
		o.nontrivial++
	}
	if o.gapLeft <= 0 || len(adv.Candidates) > 16 {
		return
	}
	o.gapLeft--
	opt, err := adv.Ev.SolveExhaustive(adv.Candidates, p.objective, p.met)
	if err != nil {
		o.fail("%s: exhaustive oracle: %v", where, err)
		return
	}
	o.recordGap(p, t, bill, rj.Feasible, opt, where)
}

// recordGap compares an answer with a reference optimum over the same
// candidates.
func (o *oracle) recordGap(p params, t time.Duration, bill costmodel.Bill, feasible bool, opt optimizer.Selection, where string) {
	switch {
	case !opt.Feasible:
		// Nothing satisfies the constraint; best effort is all anyone
		// can return.
	case !feasible:
		o.missedFeasible++
	default:
		got, best := p.objective(t, bill), p.objective(opt.Time, opt.Bill)
		gap := 0.0
		if best != 0 {
			gap = (got - best) / math.Abs(best)
		}
		if gap < -1e-12 {
			o.fail("%s: answer beats the reference optimum (%g < %g): it cannot be a subset of the candidates", where, got, best)
			return
		}
		o.gapSum += max(gap, 0)
		o.gapN++
	}
}

func parseLimit(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

func (o *oracle) checkAdvise(reqBody, respBody []byte) error {
	var req server.AdviseRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return fmt.Errorf("re-decode request: %v", err)
	}
	cfg, err := req.ConfigJSON.Config()
	if err != nil {
		return err
	}
	adv, err := core.New(cfg)
	if err != nil {
		return err
	}
	var resp server.AdviseResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("decode response: %v", err)
	}
	p := params{scenario: strings.ToLower(req.Scenario)}
	if p.scenario != resp.Scenario {
		return fmt.Errorf("asked for %q, answered %q", p.scenario, resp.Scenario)
	}
	if resp.Candidates != len(adv.Candidates) {
		return fmt.Errorf("response says %d candidates, oracle generates %d", resp.Candidates, len(adv.Candidates))
	}
	if p.scenario == "pareto" {
		o.checkPareto(resp.Pareto)
		return nil
	}
	if resp.Recommendation == nil {
		return fmt.Errorf("no recommendation in a %s response", p.scenario)
	}
	if req.Budget != nil {
		p.budget = *req.Budget
	}
	if p.limit, err = parseLimit(req.Limit); err != nil {
		return err
	}
	p.alpha = 0.5
	if req.Alpha != nil {
		p.alpha = *req.Alpha
	}
	o.checkRec(adv, p, resp.Recommendation, p.scenario)
	return nil
}

// checkPareto checks what a frontier without points can be held to:
// sorted by α, and no point dominated by another.
func (o *oracle) checkPareto(front []core.ParetoPointJSON) {
	o.checked++
	o.answers++
	for i, a := range front {
		for j, b := range front {
			if i != j && b.Hours <= a.Hours && b.Cost <= a.Cost && (b.Hours < a.Hours || b.Cost < a.Cost) {
				o.fail("pareto: point α=%g is dominated by α=%g", a.Alpha, b.Alpha)
				return
			}
		}
	}
	if len(front) >= 2 {
		o.nontrivial++
	}
}

// gridAdvisors rebuilds the per-cell advisors of a compare/sweep grid
// from the resolved request fields.
type gridAdvisors struct {
	shared *core.Shared
	cells  map[compare.Key]*core.Advisor
}

func newGridAdvisors(cfg core.Config) (*gridAdvisors, error) {
	sh, err := core.NewShared(cfg)
	if err != nil {
		return nil, err
	}
	return &gridAdvisors{shared: sh, cells: map[compare.Key]*core.Advisor{}}, nil
}

func (g *gridAdvisors) cell(k compare.Key) (*core.Advisor, error) {
	if adv, ok := g.cells[k]; ok {
		return adv, nil
	}
	prov, err := pricing.Lookup(k.Provider)
	if err != nil {
		return nil, err
	}
	adv, err := g.shared.Advisor(prov, k.InstanceType, k.Instances)
	if err != nil {
		return nil, err
	}
	g.cells[k] = adv
	return adv, nil
}

// gridConfig is the advisory problem every cell of a compare grid
// shares, as compare.Run builds it.
func gridConfig(req compare.Request) core.Config {
	return core.Config{
		FactRows: req.FactRows, Months: req.Months, Workload: req.Workload,
		CandidateBudget: req.CandidateBudget, MaintenanceRuns: req.MaintenanceRuns,
		UpdateRatio: req.UpdateRatio, MaintenancePolicy: req.MaintenancePolicy,
		JobOverhead: req.JobOverhead, Solver: req.Solver, Seed: req.Seed,
	}
}

func (o *oracle) checkCompare(reqBody, respBody []byte) error {
	var rj compare.RequestJSON
	if err := json.Unmarshal(reqBody, &rj); err != nil {
		return fmt.Errorf("re-decode request: %v", err)
	}
	if err := rj.Normalize(); err != nil {
		return err
	}
	req, err := rj.Resolve()
	if err != nil {
		return err
	}
	grid, err := newGridAdvisors(gridConfig(req))
	if err != nil {
		return err
	}
	var resp compare.ComparisonJSON
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("decode response: %v", err)
	}
	if want := rj.Configs(); len(resp.Configs)+len(resp.Skipped) != want {
		return fmt.Errorf("grid has %d cells, response has %d configs + %d skipped", want, len(resp.Configs), len(resp.Skipped))
	}
	alpha := 0.5
	if rj.Alpha != nil {
		alpha = *rj.Alpha
	}
	for _, c := range resp.Configs {
		adv, err := grid.cell(c.Key)
		if err != nil {
			return err
		}
		for _, r := range c.Results {
			p := params{scenario: r.Scenario, budget: req.Budget, limit: req.Limit, alpha: alpha}
			o.checkRec(adv, p, &r.Recommendation, c.Key.String()+" "+r.Scenario)
		}
	}
	return nil
}

func (o *oracle) checkSweep(reqBody, respBody []byte) error {
	var rj compare.SweepRequestJSON
	if err := json.Unmarshal(reqBody, &rj); err != nil {
		return fmt.Errorf("re-decode request: %v", err)
	}
	if err := rj.Normalize(); err != nil {
		return err
	}
	req, err := rj.Resolve()
	if err != nil {
		return err
	}
	grid, err := newGridAdvisors(core.Config{
		FactRows: req.FactRows, Months: req.Months, Workload: req.Workload,
		CandidateBudget: req.CandidateBudget, MaintenanceRuns: req.MaintenanceRuns,
		UpdateRatio: req.UpdateRatio, MaintenancePolicy: req.MaintenancePolicy,
		JobOverhead: req.JobOverhead, Solver: req.Solver, Seed: req.Seed,
	})
	if err != nil {
		return err
	}
	var resp compare.SweepJSON
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("decode response: %v", err)
	}
	if want := rj.Configs(); len(resp.Cells)+len(resp.Skipped) != want {
		return fmt.Errorf("grid has %d cells, response has %d cells + %d skipped", want, len(resp.Cells), len(resp.Skipped))
	}
	alpha := 0.5
	if rj.Alpha != nil {
		alpha = *rj.Alpha
	}
	p := params{scenario: resp.Scenario, budget: req.Budget, limit: req.Limit, alpha: alpha}
	for _, c := range resp.Cells {
		adv, err := grid.cell(c.Key)
		if err != nil {
			return err
		}
		o.checkRec(adv, p, &c.Recommendation, c.Key.String())
	}
	return nil
}

// checkSearch verifies a search-large answer: the bill is rebuilt as on
// the wire, and the first few answers are compared with a reference
// search given ten times the evaluation budget, the same seed, and the
// answer itself as a warm start — so the gap is what more search would
// still have bought.
func (o *oracle) checkSearch(op *searchOp, respBody []byte) error {
	if o.sch == nil {
		sch, err := schema.Synthetic(4, 4)
		if err != nil {
			return err
		}
		o.sch = sch
	}
	adv, err := newSearchAdvisor(o.sch, op)
	if err != nil {
		return err
	}
	var rj core.RecommendationJSON
	if err := json.Unmarshal(respBody, &rj); err != nil {
		return fmt.Errorf("decode response: %v", err)
	}
	p := params{scenario: op.scenario, budget: op.budget, limit: op.limit, alpha: op.alpha}
	gapLeft := o.gapLeft
	wrong := o.wrong
	o.checkRec(adv, p, &rj, op.scenario) // never runs the exhaustive gap: 48 candidates
	if o.wrong != wrong || gapLeft <= 0 {
		return nil
	}
	o.gapLeft--
	var obj search.Objective
	switch op.scenario {
	case "mv1":
		obj = search.BudgetObjective(op.budget)
	case "mv2":
		obj = search.DeadlineObjective(op.limit)
	default:
		obj = search.TradeoffObjective(op.alpha, optimizer.RawTradeoff, 0, costmodel.Bill{})
	}
	pts := pointsOf(rj.Points)
	ref, err := search.Solve(adv.Ev, adv.Candidates, obj, search.Options{
		Seed: op.seed, MaxEvals: 10 * search.DefaultMaxEvals, Starts: [][]lattice.Point{pts},
	})
	if err != nil {
		return fmt.Errorf("reference search: %v", err)
	}
	t, bill, err := adv.Ev.Evaluate(pts)
	if err != nil {
		return err
	}
	o.recordGap(p, t, bill, rj.Feasible, ref, op.scenario)
	return nil
}
