package main

// trace.go is the outside-in per-layer trace: a single-goroutine,
// in-process replay of the workload's first measured requests (after an
// untraced warm-up, as in a measured run), with a span
// recorded by the benchmark around every call into a layer's public
// functions. Nothing inside the program is instrumented — that is a
// later change; today the layers are timed from their doorsteps.
//
// Per miss the span tree is
//
//	server.serve                      (Server.ServeHTTP)
//	  server.decode                   json + ConfigJSON/RequestJSON.Normalize
//	  core.resolve                    ConfigJSON.Resolve
//	  core.shared                     core.NewShared
//	    lattice.new  views.candidates  optimizer.kernel
//	  core.bind                       Shared.Advisor
//	    optimizer.reprice
//	  core.advise_<scn>               Advisor.AdviseBudget/Deadline/Tradeoff/ParetoFront
//	    optimizer.solve_<scn>         Advisor.Session().SolveMV1/2/3
//	    search.solve_<scn>            (search solver only)
//	  core.encode                     Recommendation.JSON + json.Marshal
//
// The children of server.serve run immediately after it on the same
// body, and grandchildren are re-timed standalone with the same
// arguments, so a child's interval lies outside its parent's: self time
// is the parent's duration minus the sum of its children's durations,
// and server.self_ms is what ServeHTTP spends that no layer below it
// explains (mux, admission, singleflight, cache fill, header writes).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/search"
	"vmcloud/internal/server"
	"vmcloud/internal/views"
)

// span is one timed call. Spans of one request share Trace (the request
// index); Parent is the causing span's ID, -1 for a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Allocs and Bytes are runtime.MemStats deltas, taken around root
	// spans only: reading MemStats stops the world, which a nested read
	// would charge to its parent.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// count holds exact per-solve counters taken at the same boundaries
	// (search evaluations, cached states, candidate-pool size).
	count map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), count: map[string][]float64{}} }

// do times f as a child of parent and returns the new span's ID.
func (t *tracer) do(trace, parent int, name string, f func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	f()
	t.spans[id].End = int64(time.Since(t.t0))
	return id
}

// root is do for a top-level span, with allocation deltas.
func (t *tracer) root(trace int, name string, f func()) int {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.do(trace, -1, name, f)
	runtime.ReadMemStats(&m1)
	t.spans[id].Allocs = m1.Mallocs - m0.Mallocs
	t.spans[id].Bytes = m1.TotalAlloc - m0.TotalAlloc
	return id
}

func (t *tracer) counter(name string, v float64) { t.count[name] = append(t.count[name], v) }

// durations returns every span duration recorded under name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// childTime sums, per span ID, the durations of its direct children.
func (t *tracer) childTime() map[int]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	return child
}

// selfTimes returns, for every span called name, its duration minus the
// durations of its direct children.
func (t *tracer) selfTimes(name string) []time.Duration {
	child := t.childTime()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()-child[s.ID])
		}
	}
	return out
}

// write stores the spans as JSON under bench/out/.
func (t *tracer) write(workload string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// replayMax is how many of a workload's first measured requests the
// traced replay covers, time permitting.
const replayMax = 1000

// replay is the traced in-process pass.
type replay struct {
	tr      *tracer
	w       *workload
	handler http.Handler
	t       *handlerTarget
	st      *searchTarget
	// serveIDs maps a class name to the server.serve spans of that
	// class, so hits and misses can be told apart afterwards.
	serveIDs map[string][]int
	served   int // requests the pass got through before its deadline
	errs     []string
	// close releases the in-process handler once the caller has scraped
	// its /metrics.
	close func()
}

// newHandler builds the in-process stand-in for a workload's daemon.
func newHandler(w *workload) (http.Handler, func()) {
	for i, a := range w.daemonArgs {
		if a == "-cluster" && i+1 < len(w.daemonArgs) {
			n := 3
			fmt.Sscan(w.daemonArgs[i+1], &n)
			lc := server.NewLocalCluster(server.LocalClusterOptions{Workers: n})
			return lc, lc.Close
		}
	}
	s := server.New(server.Options{})
	return s, s.Close
}

// sequence is everything a run sends, in order: the warm-up, then the
// first n measured requests.
func (w *workload) sequence(n int) []request {
	out := append([]request(nil), w.warm...)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, w.next(i))
	}
	return out
}

// serveWarmUp sends the warm-up to t with no clock and no spans, so that
// a replay starts from the state a measured window starts from (on
// mixed-fleet: a full cache, not 400 first misses).
func serveWarmUp(t target, w *workload) error {
	for i := range w.warm {
		rep, err := t.do(&w.warm[i])
		if err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("replay warm-up %s #%d: status %d err %v", w.warm[i].endpoint, w.warm[i].id, rep.status, err)
		}
	}
	return nil
}

// untracedReplay serves reqs, for at most budget, with nothing but a
// clock around each request: the baseline bench.trace_overhead_pct
// compares against.
func untracedReplay(w *workload, reqs []request, budget time.Duration) ([]time.Duration, error) {
	var t target
	if w.inProcess {
		st, err := newSearchTarget()
		if err != nil {
			return nil, err
		}
		t = st
	} else {
		h, closeFn := newHandler(w)
		defer closeFn()
		t = newHandlerTarget(h)
	}
	if err := serveWarmUp(t, w); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(budget)
	var ds []time.Duration
	for i := range reqs {
		if time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		if _, err := t.do(&reqs[i]); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// tracedReplay serves reqs again on a fresh handler, for at most budget,
// this time with spans, and replays every miss through the layers.
func tracedReplay(w *workload, reqs []request, budget time.Duration) (*replay, error) {
	rp := &replay{tr: newTracer(), w: w, serveIDs: map[string][]int{}, close: func() {}}
	if w.inProcess {
		st, err := newSearchTarget()
		if err != nil {
			return nil, err
		}
		rp.st = st
	} else {
		h, closeFn := newHandler(w)
		rp.close = closeFn
		rp.handler = h
		rp.t = newHandlerTarget(h)
		rp.t.debugPhases = true
	}
	var t target = rp.t
	if w.inProcess {
		t = rp.st
	}
	if err := serveWarmUp(t, w); err != nil {
		rp.close()
		return nil, err
	}
	deadline := time.Now().Add(budget)
	for i := range reqs {
		if time.Now().After(deadline) {
			break
		}
		rp.one(i, &reqs[i])
		rp.served++
	}
	return rp, nil
}

func (rp *replay) fail(format string, args ...any) {
	if len(rp.errs) < 5 {
		rp.errs = append(rp.errs, fmt.Sprintf(format, args...))
	}
}

func (rp *replay) one(i int, req *request) {
	var rep reply
	var err error
	name := "server.serve"
	var t target = rp.t
	if req.search != nil {
		name, t = "facade.serve", rp.st
	}
	id := rp.tr.root(i, name, func() { rep, err = t.do(req) })
	if err != nil || rep.status != http.StatusOK {
		rp.fail("replay %s #%d: status %d err %v", req.endpoint, req.id, rep.status, err)
		return
	}
	class := className(req, rep.cache)
	rp.serveIDs[class] = append(rp.serveIDs[class], id)
	if rep.cache != "miss" {
		return
	}
	switch {
	case req.search != nil:
		err = rp.searchLayers(i, id, req.search)
	case req.endpoint == "advise":
		err = rp.adviseLayers(i, id, req.body)
	case req.endpoint == "compare":
		err = rp.compareLayers(i, id, req.body)
	case req.endpoint == "sweep":
		err = rp.sweepLayers(i, id, req.body)
	}
	if err != nil {
		rp.fail("replay %s #%d: %v", req.endpoint, req.id, err)
	}
}

// strictDecode is the server's decode step: unknown fields rejected.
func strictDecode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sharedLayers times core.NewShared under parent, with its three
// construction steps re-timed standalone as children.
func (rp *replay) sharedLayers(i, parent int, cfg core.Config) (*core.Shared, error) {
	tr := rp.tr
	var sh *core.Shared
	var err error
	id := tr.do(i, parent, "core.shared", func() { sh, err = core.NewShared(cfg) })
	if err != nil {
		return nil, err
	}
	sch := cfg.Schema
	if sch == nil {
		sch = schema.Sales()
	}
	var l *lattice.Lattice
	tr.do(i, id, "lattice.new", func() { l, err = lattice.New(sch, cfg.FactRows) })
	if err != nil {
		return nil, err
	}
	var cands []views.Candidate
	tr.do(i, id, "views.candidates", func() { cands, err = views.GenerateCandidates(l, cfg.Workload, cfg.CandidateBudget) })
	if err != nil {
		return nil, err
	}
	tr.counter("views.candidates", float64(len(cands)))
	tr.do(i, id, "optimizer.kernel", func() { _, err = optimizer.NewComparisonKernel(l, cfg.Workload, cands) })
	return sh, err
}

// bindLayers times Shared.Advisor under parent with the kernel re-price
// as its child, and hands back a second, untouched advisor whose
// session has cached nothing yet (for the standalone solver timing).
func (rp *replay) bindLayers(i, parent int, sh *core.Shared, prov pricing.Provider, instanceType string, instances int) (adv, fresh *core.Advisor, err error) {
	tr := rp.tr
	id := tr.do(i, parent, "core.bind", func() { adv, err = sh.Advisor(prov, instanceType, instances) })
	if err != nil {
		return nil, nil, err
	}
	tr.do(i, id, "optimizer.reprice", func() { _, err = sh.Kern.RepriceFor(adv.Ev) })
	if err != nil {
		return nil, nil, err
	}
	fresh, err = sh.Advisor(prov, instanceType, instances)
	return adv, fresh, err
}

// adviseScenario times one scenario on adv under parent, with the
// knapsack solver (and, for the search solver, the search itself)
// re-timed standalone on fresh's untouched session.
func (rp *replay) adviseScenario(i, parent int, adv, fresh *core.Advisor, p params) (core.Recommendation, error) {
	tr := rp.tr
	var rec core.Recommendation
	var err error
	id := tr.do(i, parent, "core.advise_"+p.scenario, func() {
		switch p.scenario {
		case "mv1":
			rec, err = adv.AdviseBudget(p.budget)
		case "mv2":
			rec, err = adv.AdviseDeadline(p.limit)
		default:
			rec, err = adv.AdviseTradeoff(p.alpha)
		}
	})
	if err != nil {
		return rec, err
	}
	sess := fresh.Session()
	var warm optimizer.Selection
	tr.do(i, id, "optimizer.solve_"+p.scenario, func() {
		switch p.scenario {
		case "mv1":
			warm, err = sess.SolveMV1(p.budget)
		case "mv2":
			warm, err = sess.SolveMV2(p.limit)
		default:
			warm, err = sess.SolveMV3(p.alpha, optimizer.RawTradeoff)
		}
	})
	if err != nil || fresh.Solver != core.SolverSearch {
		return rec, err
	}
	var obj search.Objective
	switch p.scenario {
	case "mv1":
		obj = search.BudgetObjective(p.budget)
	case "mv2":
		obj = search.DeadlineObjective(p.limit)
	default:
		obj = search.TradeoffObjective(p.alpha, optimizer.RawTradeoff, 0, rec.BaselineBill)
	}
	var st search.Stats
	var sel optimizer.Selection
	sid := tr.do(i, id, "search.solve_"+p.scenario, func() {
		sel, st, err = search.SolveStats(fresh.Ev, fresh.Candidates, obj, search.Options{
			Seed: fresh.Seed, Engine: sess.Engine(), Starts: [][]lattice.Point{warm.Points},
		})
	})
	if err != nil {
		return rec, err
	}
	tr.counter("search.evals", float64(st.Evals))
	tr.counter("search.cached_states", float64(st.CachedStates))
	if ms := float64(tr.spans[sid].dur()) / 1e6; ms > 0 {
		tr.counter("search.evals_per_ms", float64(st.Evals)/ms)
	}
	// How much the search improved on its knapsack warm start, on the
	// scenario's own objective; only meaningful when both are feasible.
	if warm.Feasible && sel.Feasible {
		k, s := p.objective(warm.Time, warm.Bill), p.objective(sel.Time, sel.Bill)
		if k != 0 {
			tr.counter("search.gain_vs_knapsack_pct", 100*(k-s)/k)
		}
	}
	return rec, nil
}

func (rp *replay) adviseLayers(i, parent int, body []byte) error {
	tr := rp.tr
	var req server.AdviseRequest
	var err error
	tr.do(i, parent, "server.decode", func() {
		if err = strictDecode(body, &req); err == nil {
			if err = req.ConfigJSON.Normalize(); err == nil {
				_, err = json.Marshal(req) // the canonical cache key
			}
		}
	})
	if err != nil {
		return err
	}
	var cfg core.Config
	tr.do(i, parent, "core.resolve", func() { cfg, err = req.ConfigJSON.Resolve() })
	if err != nil {
		return err
	}
	sh, err := rp.sharedLayers(i, parent, cfg)
	if err != nil {
		return err
	}
	adv, fresh, err := rp.bindLayers(i, parent, sh, *cfg.Provider, cfg.InstanceType, cfg.Instances)
	if err != nil {
		return err
	}
	resp := server.AdviseResponse{
		Scenario: strings.ToLower(req.Scenario), DatasetSize: core.DatasetSizeOf(adv).String(), Candidates: len(adv.Candidates),
	}
	if resp.Scenario == "pareto" {
		var front []core.ParetoPoint
		tr.do(i, parent, "core.pareto", func() { front, err = adv.ParetoFront(req.Steps) })
		if err != nil {
			return err
		}
		tr.do(i, parent, "core.encode", func() {
			resp.Pareto = core.ParetoJSON(front)
			_, err = json.Marshal(resp)
		})
		return err
	}
	p := params{scenario: resp.Scenario, alpha: 0.5}
	if req.Budget != nil {
		p.budget = *req.Budget
	}
	if p.limit, err = parseLimit(req.Limit); err != nil {
		return err
	}
	if req.Alpha != nil {
		p.alpha = *req.Alpha
	}
	rec, err := rp.adviseScenario(i, parent, adv, fresh, p)
	if err != nil {
		return err
	}
	tr.do(i, parent, "core.encode", func() {
		rj := rec.JSON()
		resp.Recommendation = &rj
		_, err = json.Marshal(resp)
	})
	return err
}

func (rp *replay) searchLayers(i, parent int, op *searchOp) error {
	cfg := core.Config{
		Schema: rp.st.sch, FactRows: op.factRows, Workload: op.w,
		CandidateBudget: searchCandidates, Solver: core.SolverSearch, Seed: op.seed,
	}
	sh, err := rp.sharedLayers(i, parent, cfg)
	if err != nil {
		return err
	}
	adv, fresh, err := rp.bindLayers(i, parent, sh, pricing.AWS2012(), "", 0)
	if err != nil {
		return err
	}
	rec, err := rp.adviseScenario(i, parent, adv, fresh, params{scenario: op.scenario, budget: op.budget, limit: op.limit, alpha: op.alpha})
	if err != nil {
		return err
	}
	rp.tr.do(i, parent, "core.encode", func() { _, err = json.Marshal(rec.JSON()) })
	return err
}

// compareLayers replays one compare miss. compare.Run is timed three
// ways — as served, on one worker, and on one worker without the
// break-even sweep — and then the grid is walked through core's public
// API, so that what compare itself adds (normalize, fan-out, merge,
// winners) is a reported remainder rather than a hidden one.
func (rp *replay) compareLayers(i, parent int, body []byte) error {
	tr := rp.tr
	var rj compare.RequestJSON
	var err error
	tr.do(i, parent, "server.decode", func() {
		if err = strictDecode(body, &rj); err == nil {
			if err = rj.Normalize(); err == nil {
				_, err = json.Marshal(rj)
			}
		}
	})
	if err != nil {
		return err
	}
	var req compare.Request
	tr.do(i, parent, "core.resolve", func() { req, err = rj.Resolve() })
	if err != nil {
		return err
	}
	var comp *compare.Comparison
	tr.do(i, parent, "compare.run", func() { comp, err = compare.Run(req) })
	if err != nil {
		return err
	}
	tr.do(i, parent, "compare.encode", func() { _, err = json.Marshal(comp.JSON()) })
	if err != nil {
		return err
	}
	// The variants below are measurements of compare.Run, not steps of
	// serving the request: they hang off no parent.
	serial := req
	serial.Workers = 1
	tr.do(i, -1, "compare.run_w1", func() { _, err = compare.Run(serial) })
	if err != nil {
		return err
	}
	nobe := serial
	nobe.BreakEvenSteps = -1
	nobeID := tr.do(i, -1, "compare.run_w1_nobe", func() { _, err = compare.Run(nobe) })
	if err != nil {
		return err
	}
	// Walk the same grid through core, as children of the no-break-even
	// serial run: its self time is compare's own overhead.
	sh, err := rp.sharedLayers(i, nobeID, gridConfig(req))
	if err != nil {
		return err
	}
	alpha := 0.5
	if rj.Alpha != nil {
		alpha = *rj.Alpha
	}
	for _, c := range comp.Configs {
		prov, err := pricing.Lookup(c.Provider)
		if err != nil {
			return err
		}
		adv, fresh, err := rp.bindLayers(i, nobeID, sh, prov, c.InstanceType, c.Instances)
		if err != nil {
			return err
		}
		for _, scn := range comp.Scenarios {
			if scn == "pareto" {
				continue
			}
			p := params{scenario: scn, budget: req.Budget, limit: req.Limit, alpha: alpha}
			if _, err := rp.adviseScenario(i, nobeID, adv, fresh, p); err != nil {
				return err
			}
		}
		// One break-even probe per sweep budget on this cell's session:
		// the unit the break-even sweep is made of.
		if comp.BreakEven != nil {
			sess := adv.Session()
			for _, b := range comp.BreakEven.Budgets {
				tr.do(i, -1, "optimizer.budget_outcome", func() { _, _, _, err = sess.BudgetOutcome(b) })
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (rp *replay) sweepLayers(i, parent int, body []byte) error {
	tr := rp.tr
	var rj compare.SweepRequestJSON
	var err error
	tr.do(i, parent, "server.decode", func() {
		if err = strictDecode(body, &rj); err == nil {
			if err = rj.Normalize(); err == nil {
				_, err = json.Marshal(rj)
			}
		}
	})
	if err != nil {
		return err
	}
	var req compare.SweepRequest
	tr.do(i, parent, "core.resolve", func() { req, err = rj.Resolve() })
	if err != nil {
		return err
	}
	var sw *compare.Sweep
	tr.do(i, parent, "compare.sweep", func() { sw, err = compare.RunSweep(req) })
	if err != nil {
		return err
	}
	tr.do(i, parent, "compare.encode", func() { _, err = json.Marshal(sw.JSON()) })
	return err
}
