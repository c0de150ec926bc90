package main

// target.go holds the three things a workload can be driven against:
// the real daemon over loopback HTTP, an in-process http.Handler (the
// traced replay and the -short smoke), and the in-process facade path of
// search-large.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"vmcloud/internal/core"
	"vmcloud/internal/schema"
)

// reply is what a client saw. body aliases the target's buffer and is
// valid until the target's next do.
type reply struct {
	status   int
	cache    string // X-Cache: hit, miss, coalesced or stale
	degraded bool
	phases   string // X-Solve-Phases, when asked for
	body     []byte
}

// target serves one request at a time; each client goroutine owns one.
type target interface {
	do(req *request) (reply, error)
}

func pathOf(req *request) string { return "/v1/" + req.endpoint }

// httpTarget is one keep-alive client connection to the daemon.
type httpTarget struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
	// debugPhases asks the daemon for X-Solve-Phases on misses.
	debugPhases bool
}

func newHTTPTarget(addr string) *httpTarget {
	return &httpTarget{
		base: "http://" + addr,
		// One connection per client: a closed loop never has two
		// requests in flight.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

func (t *httpTarget) do(req *request) (reply, error) {
	u := t.base + pathOf(req)
	if t.debugPhases {
		u += "?debug=phases"
	}
	hr, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(req.body))
	if err != nil {
		return reply{}, err
	}
	if req.account != "" {
		hr.Header.Set("X-Account", req.account)
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		return reply{}, err
	}
	t.buf.Reset()
	_, err = t.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return replyFrom(resp.StatusCode, resp.Header, t.buf.Bytes()), nil
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

func replyFrom(status int, h http.Header, body []byte) reply {
	return reply{
		status:   status,
		cache:    h.Get("X-Cache"),
		degraded: h.Get("X-Degraded") != "",
		phases:   h.Get("X-Solve-Phases"),
		body:     body,
	}
}

// recorder is a minimal http.ResponseWriter, reused across requests so
// the in-process hit path is not charged for httptest's allocations.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(s int)           { r.status = s }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// handlerTarget calls an http.Handler directly.
type handlerTarget struct {
	h           http.Handler
	rec         recorder
	rd          bytes.Reader
	debugPhases bool
}

func newHandlerTarget(h http.Handler) *handlerTarget {
	return &handlerTarget{h: h, rec: recorder{h: make(http.Header)}}
}

// nopHandler answers 200 with nothing: what is left is the harness.
type nopHandler struct{}

func (nopHandler) ServeHTTP(http.ResponseWriter, *http.Request) {}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

func (t *handlerTarget) do(req *request) (reply, error) {
	t.rd.Reset(req.body)
	hr := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: pathOf(req)},
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, 1),
		Body:   nopCloser{&t.rd},
	}
	if t.debugPhases {
		hr.URL.RawQuery = "debug=phases"
	}
	if req.account != "" {
		hr.Header.Set("X-Account", req.account)
	}
	clear(t.rec.h)
	t.rec.status = http.StatusOK
	t.rec.body.Reset()
	t.h.ServeHTTP(&t.rec, hr)
	return replyFrom(t.rec.status, t.rec.h, t.rec.body.Bytes()), nil
}

// searchTarget runs search-large operations: a cold advisor build, one
// search-solver advise, and the JSON encode a facade user would do.
type searchTarget struct {
	sch *schema.Schema
	buf bytes.Buffer
}

func newSearchTarget() (*searchTarget, error) {
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		return nil, err
	}
	return &searchTarget{sch: sch}, nil
}

func newSearchAdvisor(sch *schema.Schema, op *searchOp) (*core.Advisor, error) {
	return core.New(core.Config{
		Schema:          sch,
		FactRows:        op.factRows,
		Workload:        op.w,
		CandidateBudget: searchCandidates,
		Solver:          core.SolverSearch,
		Seed:            op.seed,
	})
}

// advise runs op's scenario on adv.
func (op *searchOp) advise(adv *core.Advisor) (core.Recommendation, error) {
	switch op.scenario {
	case "mv1":
		return adv.AdviseBudget(op.budget)
	case "mv2":
		return adv.AdviseDeadline(op.limit)
	case "mv3":
		return adv.AdviseTradeoff(op.alpha)
	}
	return core.Recommendation{}, fmt.Errorf("search op: unknown scenario %q", op.scenario)
}

func (t *searchTarget) do(req *request) (reply, error) {
	adv, err := newSearchAdvisor(t.sch, req.search)
	if err != nil {
		return reply{}, err
	}
	rec, err := req.search.advise(adv)
	if err != nil {
		return reply{}, err
	}
	t.buf.Reset()
	if err := json.NewEncoder(&t.buf).Encode(rec.JSON()); err != nil {
		return reply{}, err
	}
	return reply{status: http.StatusOK, cache: "miss", degraded: rec.Selection.Degraded, body: t.buf.Bytes()}, nil
}
