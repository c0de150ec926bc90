package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/jsondec"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
	"vmcloud/internal/obs"
)

// request.go is the request half of the memoized endpoints: bytes to a
// canonical key. A body is read by the hand-written decoders
// (DecodeJSON, in jsondec's fast grammar), canonicalized (normalize,
// then the endpoint row's ceilings), and written back out as its cache
// key (AppendKey) — no reflection and no lattice on the way. A body
// outside the fast grammar goes through encoding/json over the same
// struct tags instead, which is also where every rejection of a
// malformed body is worded.

// AdviseRequest is the body of POST /v1/advise: a scenario selector, its
// parameter, and the advisory problem (flattened ConfigJSON fields).
type AdviseRequest struct {
	// Scenario is "mv1" (budget), "mv2" (deadline), "mv3" (tradeoff) or
	// "pareto"; default "mv1".
	Scenario string `json:"scenario,omitempty"`
	// Budget is the MV1 spending limit ("$25.00" or a number of dollars);
	// required for mv1.
	Budget *money.Money `json:"budget,omitempty"`
	// Limit is the MV2 response-time limit as a Go duration ("4h");
	// required for mv2.
	Limit string `json:"limit,omitempty"`
	// Alpha is the MV3 weight on time in [0,1]; default 0.5.
	Alpha *float64 `json:"alpha,omitempty"`
	// Steps is the pareto sweep resolution; default 11.
	Steps int `json:"steps,omitempty"`

	core.ConfigJSON
}

// DecodeJSON fills r from d as encoding/json fills it through the
// struct tags; the caller checks d.End and d.OK. See core.ConfigJSON's
// codec for the embedded members.
//
//mvlint:hotpath
func (r *AdviseRequest) DecodeJSON(d *jsondec.Decoder) {
	var seen, config uint32
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); key {
		case "scenario":
			d.Once(&seen, 0)
			r.Scenario = d.String()
		case "budget":
			d.Once(&seen, 1)
			b := money.DecodeJSON(d)
			r.Budget = &b
		case "limit":
			d.Once(&seen, 2)
			r.Limit = d.String()
		case "alpha":
			d.Once(&seen, 3)
			a := d.Float()
			r.Alpha = &a
		case "steps":
			d.Once(&seen, 4)
			r.Steps = d.Int()
		default:
			r.ConfigJSON.DecodeMember(d, key, &config)
		}
	}
}

// AppendKey appends what encoding/json writes for r: of a normalized
// request, the canonical cache key.
//
//mvlint:hotpath
func (r *AdviseRequest) AppendKey(dst []byte) ([]byte, error) {
	var err error
	mark := len(dst)
	if r.Scenario != "" {
		dst = append(dst, `,"scenario":`...)
		dst = jsonenc.AppendString(dst, r.Scenario)
	}
	if r.Budget != nil {
		dst = append(dst, `,"budget":`...)
		dst = r.Budget.AppendJSON(dst)
	}
	if r.Limit != "" {
		dst = append(dst, `,"limit":`...)
		dst = jsonenc.AppendString(dst, r.Limit)
	}
	if r.Alpha != nil {
		dst = append(dst, `,"alpha":`...)
		if dst, err = jsonenc.AppendFloat(dst, *r.Alpha); err != nil {
			return dst, err
		}
	}
	if r.Steps != 0 {
		dst = append(dst, `,"steps":`...)
		dst = strconv.AppendInt(dst, int64(r.Steps), 10)
	}
	if dst, err = r.ConfigJSON.AppendKeyMembers(dst); err != nil {
		return dst, err
	}
	return jsonenc.EndObject(dst, mark), nil
}

// Normalize canonicalizes the request in place: scenario defaults and
// parameter validation, scenario-irrelevant parameters zeroed (so they
// cannot fragment the cache), and the config fully resolved. The range
// of a pareto sweep's steps is the daemon's to bound (checkCeilings);
// without it the advisor itself rejects fewer than 2.
func (req *AdviseRequest) Normalize() error {
	req.Scenario = strings.ToLower(strings.TrimSpace(req.Scenario))
	if req.Scenario == "" {
		req.Scenario = "mv1"
	}
	switch req.Scenario {
	case "mv1":
		if req.Budget == nil {
			return errors.New("budget required for scenario mv1")
		}
		if req.Budget.IsNegative() {
			return fmt.Errorf("negative budget %v", *req.Budget)
		}
		req.Limit, req.Alpha, req.Steps = "", nil, 0
	case "mv2":
		if req.Limit == "" {
			return errors.New("limit required for scenario mv2")
		}
		d, err := time.ParseDuration(req.Limit)
		if err != nil {
			return fmt.Errorf("limit: %v", err)
		}
		if d <= 0 {
			return fmt.Errorf("non-positive limit %v", d)
		}
		req.Limit = d.String()
		req.Budget, req.Alpha, req.Steps = nil, nil, 0
	case "mv3":
		if req.Alpha == nil {
			a := 0.5
			req.Alpha = &a
		}
		if !(*req.Alpha >= 0 && *req.Alpha <= 1) {
			return fmt.Errorf("alpha %g out of [0,1]", *req.Alpha)
		}
		req.Budget, req.Limit, req.Steps = nil, "", 0
	case "pareto":
		if req.Steps == 0 {
			req.Steps = 11
		}
		req.Budget, req.Limit, req.Alpha = nil, "", nil
	default:
		return fmt.Errorf("unknown scenario %q (want mv1, mv2, mv3 or pareto)", req.Scenario)
	}
	return req.ConfigJSON.Normalize()
}

// Advise solves the normalized request's scenario on adv: the
// recommendation of mv1, mv2 or mv3, or the pareto frontier. It is where
// a scenario name becomes a solve, for the daemon and the CLI alike.
func (req *AdviseRequest) Advise(adv *core.Advisor) (rec core.Recommendation, front []core.ParetoPoint, err error) {
	switch req.Scenario {
	case "mv1":
		rec, err = adv.AdviseBudget(*req.Budget)
	case "mv2":
		var limit time.Duration
		if limit, err = time.ParseDuration(req.Limit); err == nil {
			rec, err = adv.AdviseDeadline(limit)
		}
	case "mv3":
		rec, err = adv.AdviseTradeoff(*req.Alpha)
	case "pareto":
		front, err = adv.ParetoFront(req.Steps)
	default:
		err = fmt.Errorf("unknown scenario %q", req.Scenario)
	}
	return rec, front, err
}

// The ceilings every endpoint shares and nothing configures: the length
// of an explicit workload, and candidate_budget (the sales lattice has
// 16 cuboids).
const (
	maxQueries    = 64
	maxCandidates = 16
)

// checkCeilings holds a normalized request to e's ceilings: first the
// config's, then the pareto steps, the break-even sweep and the grid.
func (e *endpoint) checkCeilings(req memoRequest) error {
	cj, steps, breakEven, cells := req.size()
	switch {
	case cj.FactRows > e.maxFactRows:
		return fmt.Errorf("fact_rows %d exceeds the server limit %d", cj.FactRows, e.maxFactRows)
	case len(cj.Workload) > maxQueries:
		return fmt.Errorf("workload of %d queries exceeds the server limit %d", len(cj.Workload), maxQueries)
	case cj.CandidateBudget > maxCandidates:
		return fmt.Errorf("candidate_budget %d exceeds the server limit %d", cj.CandidateBudget, maxCandidates)
	case steps != 0 && (steps < 2 || steps > e.maxSteps):
		return fmt.Errorf(e.stepsText, steps, e.maxSteps)
	case breakEven > e.maxBreakEven:
		return fmt.Errorf("break_even_steps %d exceeds the server limit %d", breakEven, e.maxBreakEven)
	case cells > e.maxCells:
		return fmt.Errorf("%s of %d configurations exceeds the server limit %d", e.grid, cells, e.maxCells)
	}
	return nil
}

// memoRequest is one memoized endpoint's request: the state a miss
// carries from the body to the solve, and what the shared flow
// (finishMemoized) does with it. The three implementations below differ
// in their struct and their solver, nothing else.
type memoRequest interface {
	// decode reads src with the request struct's DecodeJSON and reports
	// whether src was inside the fast grammar; AppendKey is the struct's
	// key writer.
	decode(src string) bool
	AppendKey(dst []byte) ([]byte, error)
	// reset zeroes the struct and returns it for encoding/json to fill:
	// the path of a body the fast grammar declined.
	reset() any
	// normalize canonicalizes the decoded request and returns its stats
	// label.
	normalize() (label string, err error)
	// size reports what the ceilings bound in the normalized request: its
	// config, pareto steps, break-even steps and grid cells, 0 for what
	// the request does not carry.
	size() (cj *core.ConfigJSON, steps, breakEven, cells int)
	// solve computes the newline-terminated response body of the
	// normalized request on ws, recording per-phase durations on tr
	// (never nil) and timing its own encode step. ctx carries the solve
	// deadline down to the search solver; degraded reports a result cut
	// short by it, which must not be cached. The body is a copy: nothing
	// of ws outlives the call.
	solve(ctx context.Context, tr *obs.Trace, ws *core.Workspace) (body []byte, degraded bool, err error)
}

type adviseRequest struct{ AdviseRequest }

// decode is DecodeJSON over all of src. Each request type has its own,
// so that the decoder stays on the stack: a *jsondec.Decoder passed
// through the memoRequest interface would escape, one allocation a body.
func (r *adviseRequest) decode(src string) bool {
	d := jsondec.New(src)
	r.DecodeJSON(&d)
	d.End()
	return d.OK()
}

func (r *adviseRequest) reset() any {
	r.AdviseRequest = AdviseRequest{}
	return &r.AdviseRequest
}

func (r *adviseRequest) normalize() (string, error) {
	err := r.Normalize()
	return r.Scenario, err
}

func (r *adviseRequest) size() (*core.ConfigJSON, int, int, int) {
	return &r.ConfigJSON, r.Steps, 0, 0
}

// solve builds the advisor (lattice + candidate generation) and solves
// the scenario. The request is already normalized, so the config
// resolves without re-canonicalizing. ctx carries the solve deadline into
// the search, whose result surfaces as Degraded when the deadline stopped
// it early.
func (r *adviseRequest) solve(ctx context.Context, tr *obs.Trace, ws *core.Workspace) ([]byte, bool, error) {
	cfg, err := r.ConfigJSON.Resolve()
	if err != nil {
		return nil, false, err
	}
	cfg.Trace = tr
	cfg.Ctx = ctx
	cfg.Workspace = ws
	adv, err := core.New(cfg)
	if err != nil {
		return nil, false, err
	}
	rec, front, err := r.Advise(adv)
	if err != nil {
		return nil, false, err
	}
	ans := adviseAnswer{
		scenario:   r.Scenario,
		size:       core.DatasetSizeOf(adv),
		candidates: len(adv.Candidates),
		rec:        &rec,
		front:      front,
	}
	b, err := encodeBody(tr, ans.AppendJSON)
	return b, ans.degraded(), err
}

type compareRequest struct{ compare.RequestJSON }

func (r *compareRequest) decode(src string) bool {
	d := jsondec.New(src)
	r.DecodeJSON(&d)
	d.End()
	return d.OK()
}

func (r *compareRequest) reset() any {
	r.RequestJSON = compare.RequestJSON{}
	return &r.RequestJSON
}

func (r *compareRequest) normalize() (string, error) {
	return "compare", r.Normalize()
}

func (r *compareRequest) size() (*core.ConfigJSON, int, int, int) {
	return &r.ConfigJSON, r.Steps, r.BreakEvenSteps, r.Configs()
}

func (r *compareRequest) solve(ctx context.Context, tr *obs.Trace, ws *core.Workspace) ([]byte, bool, error) {
	creq, err := r.Resolve()
	if err != nil {
		return nil, false, err
	}
	creq.Trace = tr
	creq.Ctx = ctx
	creq.Workspace = ws
	comp, err := compare.Run(creq)
	if err != nil {
		return nil, false, err
	}
	b, err := encodeBody(tr, comp.AppendJSON)
	return b, comp.Degraded, err
}

type sweepRequest struct{ compare.SweepRequestJSON }

func (r *sweepRequest) decode(src string) bool {
	d := jsondec.New(src)
	r.DecodeJSON(&d)
	d.End()
	return d.OK()
}

func (r *sweepRequest) reset() any {
	r.SweepRequestJSON = compare.SweepRequestJSON{}
	return &r.SweepRequestJSON
}

func (r *sweepRequest) normalize() (string, error) {
	return "sweep", r.Normalize()
}

func (r *sweepRequest) size() (*core.ConfigJSON, int, int, int) {
	return &r.ConfigJSON, 0, 0, r.Configs()
}

func (r *sweepRequest) solve(ctx context.Context, tr *obs.Trace, ws *core.Workspace) ([]byte, bool, error) {
	sreq, err := r.Resolve()
	if err != nil {
		return nil, false, err
	}
	sreq.Trace = tr
	sreq.Ctx = ctx
	sreq.Workspace = ws
	sw, err := compare.RunSweep(sreq)
	if err != nil {
		return nil, false, err
	}
	b, err := encodeBody(tr, sw.AppendJSON)
	return b, sw.Degraded, err
}

// canonicalize is bytes to canonical key on endpoint e: it decodes the
// body src into req, normalizes it, holds it to e's ceilings, and appends
// its canonical key to dst; label is the request's stats label as an
// index into knownLabels. The errors are 400 bodies. The decoded strings
// are substrings of src, so src must not be a pooled buffer. A body
// outside the fast grammar is counted on e.decodeFallback and left to
// strictDecode.
func (e *endpoint) canonicalize(dst []byte, src string, req memoRequest) (key []byte, label int, err error) {
	if !req.decode(src) {
		e.decodeFallback.Inc()
		if err := strictDecode(src, req.reset()); err != nil {
			return dst, 0, fmt.Errorf("parse request: %v", err)
		}
	}
	l, err := req.normalize()
	if err == nil {
		err = e.checkCeilings(req)
	}
	if err != nil {
		return dst, 0, err
	}
	dst, err = req.AppendKey(dst)
	return dst, slices.Index(knownLabels[:], l), err
}

// strictDecode is encoding/json over the struct tags, strictly: unknown
// members are rejected, and so is anything but whitespace after the one
// value. It decides what a body outside the fast grammar means, words
// every rejection of a malformed body, and is what the tests hold the
// hand-written decoders to.
func strictDecode(src string, v any) error {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := src[dec.InputOffset():]; strings.TrimLeft(rest, " \t\r\n") != "" {
		// Decode stops after one value; json.Unmarshal, which reads the
		// whole input first, words what follows it.
		return json.Unmarshal([]byte(src), new(json.RawMessage))
	}
	return nil
}
