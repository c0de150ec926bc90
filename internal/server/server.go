// Package server exposes the view-materialization advisor as a JSON HTTP
// API — the serving layer of cmd/mvcloudd.
//
// Endpoints:
//
//	POST /v1/advise  — solve one of the paper's scenarios (mv1/mv2/mv3)
//	                   or sweep the pareto frontier for a JSON-described
//	                   advisory problem
//	POST /v1/compare — fan the same advisory problem out across provider
//	                   × instance × fleet configurations and return the
//	                   ranked cross-provider comparison
//	POST /v1/sweep   — re-price one objective across a tariff grid
//	                   (providers × instance types × fleet sizes) and
//	                   return every cell's bill plus the winner
//	POST /v1/t/{account}/advise|compare|sweep
//	                 — the same three in a tenant's own cache namespace
//	                   (tenant.go; the X-Account header does the same on
//	                   the default routes)
//	GET  /v1/tariffs — the built-in provider catalog, structured and as
//	                   pre-rendered tables
//	GET  /v1/stats   — serving counters: requests, cache hits/misses,
//	                   per-scenario breakdown
//	GET  /v1/version — the build stamp
//	GET  /healthz    — liveness probe
//	GET  /metrics    — every instrument in Prometheus text format
//
// The advisor is deterministic: the same advisory problem always yields
// the same recommendation — including the metaheuristic search solver,
// whose seed is part of the canonicalized request (and zeroed for the
// seed-independent knapsack solver, so seed spellings cannot fragment
// the key space). Advise and compare responses are therefore memoized in
// a shared size-bounded cache keyed by the endpoint plus the
// canonicalized request (defaults applied, workload resolved, tariff
// re-marshaled), so a repeated configuration skips lattice construction,
// candidate generation and the solve entirely. Handlers are safe for
// concurrent use. The cache-hit path writes the response straight from
// the cache-owned bytes without copying or allocating (values are
// replaced wholesale, never mutated in place), and concurrent identical
// cold requests are coalesced into a single solve (X-Cache: miss for
// the leader, coalesced for the followers, hit once warm).
// GET /v1/stats breaks cache occupancy and hit rates down per endpoint.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/obs"
	"vmcloud/internal/pricing"
	"vmcloud/internal/report"
	"vmcloud/internal/units"
)

// Options tunes a Server. Zero values select sensible defaults.
type Options struct {
	// CacheSize bounds the entry count of each memoization cache (solved
	// response bodies, and the raw-body keys that map a verbatim repeat
	// to one); default 512. Negative disables caching.
	CacheSize int
	// CacheMaxBytes bounds the resident bytes of each memoization cache
	// (responses and raw-body keys are bounded separately); default
	// 64 MB. Negative removes the byte bound.
	CacheMaxBytes int64
	// RequestTimeout bounds one solve's wall clock; default 30s. Every
	// solve runs under a context carrying this deadline: search-based
	// solves stop at the deadline and return their best incumbent marked
	// degraded, and a solve all of whose waiters have left (timeout,
	// disconnect) is cancelled outright rather than orphaned.
	RequestTimeout time.Duration
	// AdviseWorkers and HeavyWorkers bound the concurrent solves of the
	// cheap (advise) and heavy (compare + sweep) admission classes;
	// default GOMAXPROCS each. The classes have separate pools, so a
	// flood of heavy solves cannot starve cheap ones.
	AdviseWorkers int
	HeavyWorkers  int
	// AdviseQueue and HeavyQueue bound how many admitted solves may wait
	// behind the running ones before new leaders are shed with 429 +
	// Retry-After; default 256 each, negative for no queue at all (shed
	// as soon as every worker is busy).
	AdviseQueue int
	HeavyQueue  int
	// MaxFactRows rejects absurd dataset sizes; default 100 billion rows.
	MaxFactRows int64
	// MaxParetoSteps bounds a pareto sweep and a compare's break-even
	// sweep; default 101.
	MaxParetoSteps int
	// MaxCompareConfigs bounds the provider × instance × fleet grid a
	// single compare or sweep request may fan out; default 64.
	MaxCompareConfigs int
	// SlowSolveThreshold, when positive, logs a structured line to
	// standard error for every cold solve whose wall time reaches it,
	// with the per-phase breakdown. Zero disables slow-solve logging.
	SlowSolveThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 512
	}
	if o.CacheMaxBytes == 0 {
		o.CacheMaxBytes = 64 << 20
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxFactRows == 0 {
		o.MaxFactRows = 100_000_000_000
	}
	if o.MaxParetoSteps == 0 {
		o.MaxParetoSteps = 101
	}
	if o.MaxCompareConfigs == 0 {
		o.MaxCompareConfigs = 64
	}
	if o.AdviseWorkers == 0 {
		o.AdviseWorkers = runtime.GOMAXPROCS(0)
	}
	if o.HeavyWorkers == 0 {
		o.HeavyWorkers = runtime.GOMAXPROCS(0)
	}
	if o.AdviseQueue == 0 {
		o.AdviseQueue = 256
	}
	if o.HeavyQueue == 0 {
		o.HeavyQueue = 256
	}
	return o
}

// Server is the HTTP serving layer over the advisor core.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *sieveCache
	// rawKeys maps verbatim request bodies to their canonical cache key,
	// letting byte-identical repeats skip decoding, normalizing and
	// re-encoding the request as its key (endpoint.canonicalize).
	rawKeys *sieveCache
	// flight coalesces concurrent identical cold solves so a stampede of
	// K requests for one canonical key costs exactly one solve.
	flight *flightGroup
	// start is when the server was constructed (uptime).
	start time.Time
	// reg is this server's metric namespace (plus obs.Default, rendered
	// after it by GET /metrics) and the only store of its counters —
	// /v1/stats is rendered from the same instruments. m holds the ones
	// that belong to no single endpoint.
	reg *obs.Registry
	m   serverMetrics
	// endpoints is the table of memoized POST routes, one row each
	// (endpoint.go).
	endpoints []*endpoint
	// admCheap and admHeavy are the two admission classes: bounded solve
	// queues + worker pools for advise vs compare/sweep.
	admCheap *admission
	admHeavy *admission
	// degradeGrace is how much longer than RequestTimeout a follower
	// waits for its solve's degraded result before giving up with 503.
	// The solve's own deadline fires first, so under deadline pressure
	// clients normally get a degraded 200, not a timeout.
	degradeGrace time.Duration
	// slowLog receives slow-solve log lines (one JSON object per line).
	slowLog io.Writer
	// inflightSolves counts live solves — what the tests' leak detector
	// reads.
	inflightSolves atomic.Int64
	// slowMu serializes slow-solve log lines.
	slowMu sync.Mutex
	// cluster, when non-nil, turns this server into a stateless cluster
	// frontend: cold solves are forwarded to ring-selected workers
	// instead of running locally. Only NewLocalCluster sets it.
	cluster *clusterState
	// tenants lazily registers per-account request counters for
	// /metrics (bounded; see tenant.go).
	tenants tenantMetrics
	// beforeJoin, when set, runs between the miss path's cache probe and
	// its flight join (test hook: the window a concurrent solve can
	// finish in).
	beforeJoin func()
	// beforeSolve, when set, runs at the top of an admitted local solve,
	// inside lead's recovered region (test hook: injected latency and
	// panics meet the same deadline and containment a real solve does).
	beforeSolve func(ctx context.Context, cacheKey string)
}

// New builds a single-node server.
func New(opts Options) *Server {
	s := &Server{
		opts:         opts.withDefaults(),
		flight:       newFlightGroup(),
		start:        time.Now(),
		reg:          obs.NewRegistry(),
		degradeGrace: 2 * time.Second,
		slowLog:      os.Stderr,
	}
	s.cache = newSieveCache(s.opts.CacheSize, s.opts.CacheMaxBytes)
	s.rawKeys = newSieveCache(s.opts.CacheSize, s.opts.CacheMaxBytes)
	s.m = s.newServerMetrics(s.reg)
	s.admCheap = newAdmission(s.opts.AdviseWorkers, s.opts.AdviseQueue)
	s.admHeavy = newAdmission(s.opts.HeavyWorkers, s.opts.HeavyQueue)
	// The endpoint table: one row per memoized route, each carrying its
	// own ceilings.
	o := &s.opts
	s.endpoints = []*endpoint{
		newEndpoint(s.reg, endpoint{
			name: "advise", newReq: func() memoRequest { return &adviseRequest{} }, adm: s.admCheap,
			maxFactRows: o.MaxFactRows, maxSteps: o.MaxParetoSteps, stepsText: "steps %d out of [2,%d]",
		}),
		newEndpoint(s.reg, endpoint{
			name: "compare", newReq: func() memoRequest { return &compareRequest{} }, adm: s.admHeavy,
			maxFactRows: o.MaxFactRows, maxSteps: o.MaxParetoSteps, stepsText: "steps %d exceeds the server limit %d",
			maxBreakEven: o.MaxParetoSteps, maxCells: o.MaxCompareConfigs, grid: "comparison grid",
		}),
		newEndpoint(s.reg, endpoint{
			name: "sweep", newReq: func() memoRequest { return &sweepRequest{} }, adm: s.admHeavy,
			maxFactRows: o.MaxFactRows, maxCells: o.MaxCompareConfigs, grid: "sweep grid",
		}),
	}
	s.tenants.init(s.reg)
	s.mux = http.NewServeMux()
	for _, e := range s.endpoints {
		// The handler is built here, once, so that a request allocates no
		// closure. The tenant-scoped alias shares it: the {account} path
		// segment namespaces the memoization caches and the per-tenant
		// counters, so tenants can neither poison nor read each other's
		// entries, and the default route accepts the same namespace via
		// the X-Account header.
		h := s.counted(e.name, func(w http.ResponseWriter, r *http.Request) { s.serveMemoized(w, r, e) })
		s.mux.HandleFunc("POST /v1/"+e.name, h)
		s.mux.HandleFunc("POST /v1/t/{account}/"+e.name, h)
	}
	s.mux.HandleFunc("GET /v1/tariffs", s.counted("tariffs", s.handleTariffs))
	s.mux.HandleFunc("GET /v1/stats", s.counted("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/version", s.counted("version", s.handleVersion))
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.counted("metrics", s.handleMetrics))
	return s
}

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// counted registers route name's arrival counter and wraps h with it
// and the in-flight gauge. The count moves before h runs, so GET
// /v1/stats includes itself.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	n := s.reg.Counter("mvcloud_stats_requests_total",
		"Requests received by endpoint (/v1/stats by_endpoint).", "endpoint", name)
	s.m.received = append(s.m.received, routeCounter{name, n})
	return func(w http.ResponseWriter, r *http.Request) {
		n.Inc()
		s.m.inflight.Add(1)
		h(w, r)
		s.m.inflight.Add(-1)
	}
}

// outcome is a finished solve: the marshaled response body or an error,
// plus the leader's per-phase trace (shared with followers; a Trace is
// read-safe under concurrency) and the overload disposition — shed by
// admission control, degraded at the solve deadline, or a contained
// panic.
type outcome struct {
	body   []byte
	err    error
	phases *obs.Trace
	// degraded marks a solve that stopped at its deadline with the best
	// incumbent; the body is valid but timing-dependent, so it is never
	// cached and the response carries X-Degraded: true.
	degraded bool
	// shed means admission control (or, in cluster mode, an all-down
	// ring neighborhood) refused the solve; retryAfter is the backoff to
	// advertise and shedMsg the optional reason (defaulting to the
	// admission-control message).
	shed       bool
	retryAfter time.Duration
	shedMsg    string
	// panicked marks a solve that panicked and was contained; err holds
	// the panic value and the response is a 500.
	panicked bool
	// worker, in cluster mode, names the worker that served the solve
	// (surfaced as X-Worker for tests and debugging).
	worker string
}

// AdviseResponse is the body of a successful POST /v1/advise.
type AdviseResponse struct {
	Scenario string `json:"scenario"`
	// DatasetSize is the base cuboid volume the config implies.
	DatasetSize string `json:"dataset_size"`
	// Candidates is the size of the pre-selected candidate view pool.
	Candidates     int                      `json:"candidates"`
	Recommendation *core.RecommendationJSON `json:"recommendation,omitempty"`
	Pareto         []core.ParetoPointJSON   `json:"pareto,omitempty"`
	// Degraded is set when the solve stopped at its deadline and the
	// recommendation (or some pareto point) is a best incumbent rather
	// than a converged result. Omitted when false, so non-degraded
	// responses are byte-identical to earlier server versions.
	Degraded bool `json:"degraded,omitempty"`
}

// adviseAnswer is a solved advise request, what its body is written
// from: the recommendation, or for "pareto" the frontier (front non-nil).
type adviseAnswer struct {
	scenario   string
	size       units.DataSize
	candidates int
	rec        *core.Recommendation
	front      []core.ParetoPoint
}

// degraded reports whether the solve stopped at its deadline: the
// recommendation, or some frontier point, is a best incumbent.
func (a *adviseAnswer) degraded() bool {
	if a.front == nil {
		return a.rec.Selection.Degraded
	}
	for i := range a.front {
		if a.front[i].Degraded {
			return true
		}
	}
	return false
}

// JSON renders the answer in wire form: the reference AppendJSON's
// bytes are held to, as Comparison.JSON is the comparison writer's.
func (a *adviseAnswer) JSON() AdviseResponse {
	resp := AdviseResponse{Scenario: a.scenario, DatasetSize: a.size.String(), Candidates: a.candidates, Degraded: a.degraded()}
	if a.front != nil {
		resp.Pareto = core.ParetoJSON(a.front)
	} else {
		rj := a.rec.JSON()
		resp.Recommendation = &rj
	}
	return resp
}

// AppendJSON appends a's wire form to dst: the bytes of
// json.Marshal(a.JSON()), which it does not build. It is the advise
// body's one writer and reads every member from the solved value, as
// Comparison.AppendJSON does.
//
//mvlint:hotpath
func (a *adviseAnswer) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, a.scenario)
	dst = append(dst, `,"dataset_size":`...)
	dst = a.size.AppendJSON(dst)
	dst = append(dst, `,"candidates":`...)
	dst = strconv.AppendInt(dst, int64(a.candidates), 10)
	var err error
	switch {
	case a.front == nil:
		dst = append(dst, `,"recommendation":`...)
		dst, _, err = a.rec.AppendWire(dst, nil)
	case len(a.front) > 0:
		dst = append(dst, `,"pareto":`...)
		dst, err = core.AppendFrontier(dst, a.front)
	}
	if err != nil {
		return dst, err
	}
	if a.degraded() {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}'), nil
}

// encodeBufPool holds the scratch the miss path encodes into, so that
// a body is sized once, exactly, when it is copied out for the cache.
var encodeBufPool = sync.Pool{New: func() any { return &reqBuf{b: make([]byte, 0, 32<<10)} }}

// maxPooledBuf is the largest buffer the request and encode pools keep.
// A request body may run to maxRequestBytes and a compare response to
// hundreds of KB; pooling whatever a buffer grew to would pin the
// largest one ever seen behind every small request that follows.
const maxPooledBuf = 64 << 10

// putBuf returns rb to pool, emptied — or drops it when it has grown
// past maxPooledBuf.
func putBuf(pool *sync.Pool, rb *reqBuf) {
	if cap(rb.b) > maxPooledBuf {
		return
	}
	rb.b = rb.b[:0]
	pool.Put(rb)
}

// workspacePool recycles the workspaces cold solves build on (see
// DESIGN.md "Workspace"): one per solve, taken before the build and put
// back once the body is written.
var workspacePool = sync.Pool{New: func() any { return new(core.Workspace) }}

// maxPooledWorkspace is the largest workspace (Workspace.Bytes) the pool
// keeps. An advise on the paper's lattice leaves about 8 KB in its
// workspace, a 2×2 compare about 19 KB and each further cell about
// 4 KB; a workspace grown by a grid of dozens of cells would pin that
// size behind every small solve that follows.
const maxPooledWorkspace = 64 << 10

// encodeBody runs a body's writer, appendJSON (its AppendJSON method
// value: unlike the value behind an interface, what it is bound to need
// not move to the heap), and returns the newline-terminated response
// body in a slice of exactly its length — the cache owns it from here,
// and its byte bound counts len, not cap. The encode phase is timed on
// tr.
func encodeBody(tr *obs.Trace, appendJSON func([]byte) ([]byte, error)) ([]byte, error) {
	t0 := tr.StartTimer()
	buf := encodeBufPool.Get().(*reqBuf)
	b, err := appendJSON(buf.b[:0])
	var body []byte
	if err == nil {
		body = make([]byte, len(b)+1)
		copy(body, b)
		body[len(b)] = '\n'
	}
	buf.b = b
	putBuf(&encodeBufPool, buf)
	tr.ObserveSince(obs.PhaseEncode, t0)
	return body, err
}

// maxRequestBytes bounds one request body.
const maxRequestBytes = 1 << 20

// reqBuf is a pooled request-read buffer. The buffer accumulates
// "<endpoint>\x00<verbatim body>" — exactly the raw-key layout — so the
// hit path probes both caches without assembling a single string.
type reqBuf struct{ b []byte }

var reqBufPool = sync.Pool{New: func() any { return &reqBuf{b: make([]byte, 0, 4096)} }}

// errBodyTooLarge is built once at init: readBody runs on every
// request and must not pay fmt's reflection-and-allocate on the
// oversized-body rejection path either.
var errBodyTooLarge = errors.New("request body exceeds " + strconv.Itoa(maxRequestBytes) + " bytes")

// readBody appends r to buf until EOF, failing once the buffer exceeds
// limit bytes. Reading into a pooled buffer keeps the steady-state hit
// path allocation-free where io.ReadAll would grow a fresh slice per
// request.
//
//mvlint:hotpath
func readBody(r io.Reader, buf []byte, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// knownLabels are the stats labels (/v1/stats by_scenario): the advise
// scenarios, and the endpoint name for compare and sweep. A label
// travels as its index here — the per-scenario counters are an array,
// and a raw-key entry holds the index.
var knownLabels = [...]string{"mv1", "mv2", "mv3", "pareto", "compare", "sweep"}

// probeState carries the verbatim body the cache probe missed on into
// the slow path.
type probeState struct {
	// rawKey is the pooled "<endpoint>\x00<account>\x00<body>" buffer
	// (valid only for the duration of the request); raw is the body
	// slice of it.
	rawKey []byte
	raw    []byte
	// buf is the pooled buffer rawKey lies in; the miss path appends the
	// canonical cache key behind it. prefix is the length of the
	// "<endpoint>\x00<account>\x00" both key layouts start with.
	buf    *reqBuf
	prefix int
	// account is the request's tenant namespace ("" for the default
	// namespace); part of both cache key layouts.
	account string
	// start is when serveMemoized began handling the request — carried
	// through so the slow path's latency observation covers body read and
	// canonicalization.
	start time.Time
}

// serveMemoized runs the shared flow of endpoint e. A byte-identical
// body seen before maps straight to its response cache key (a raw-key
// entry holds the label and the "<endpoint>\x00<account>\x00<canonical
// key>" string the response is cached under), skipping decoding and
// canonicalization on every repeat. The repeat-hit path is
// allocation-free: pooled read buffer, a byte-keyed raw-key probe,
// labels as indices, shared header values, the response written straight
// from cache-owned bytes, and no per-request closures (the route's
// handler is built once, in New). Cold keys go through the flight group,
// so concurrent identical requests coalesce onto a single solve.
func (s *Server) serveMemoized(w http.ResponseWriter, r *http.Request, e *endpoint) {
	start := time.Now()
	account, ok := accountFrom(r)
	if !ok {
		e.fail(w, http.StatusBadRequest, "invalid account id (want 1-64 chars of [a-zA-Z0-9_-])", start)
		return
	}
	if account != "" {
		s.tenants.record(account)
	}
	rb := reqBufPool.Get().(*reqBuf)
	defer putBuf(&reqBufPool, rb)
	rb.b = append(rb.b[:0], e.name...)
	rb.b = append(rb.b, 0)
	rb.b = append(rb.b, account...)
	rb.b = append(rb.b, 0)
	prefix := len(rb.b)
	var err error
	rb.b, err = readBody(r.Body, rb.b, prefix+maxRequestBytes)
	if err != nil {
		e.fail(w, http.StatusBadRequest, fmt.Sprintf("read request: %v", err), start)
		return
	}
	// Fast path: the response for this verbatim body is resident. A body
	// whose response was evicted takes the miss path like any other.
	if label, key, ok := s.rawKeys.ref(rb.b); ok {
		if body, ok := s.cache.view(key); ok {
			s.respondAnswer(w, e, label, outcomeHit, body, start)
			return
		}
	}
	s.finishMemoized(w, r, e, probeState{rawKey: rb.b, raw: rb.b[prefix:], buf: rb, prefix: prefix, account: account, start: start})
}

// finishMemoized is the shared miss path: bytes to canonical key
// (decode, normalize, AppendKey), a probe of the response cache for
// differently-spelled equivalents, then the solve under the flight group.
func (s *Server) finishMemoized(w http.ResponseWriter, r *http.Request, e *endpoint, ps probeState) {
	req := e.newReq()
	// cacheKey is the cache key "<endpoint>\x00<account>\x00<canonical
	// key>", written behind the body in the pooled buffer and copied out
	// once: the one string the probes, the flight group, the caches and
	// the solve all hold. The decoded strings are substrings of the
	// decoder's input and outlive the request (a solve may), so the body
	// is copied out of the pooled buffer once too.
	mark := len(ps.buf.b)
	buf, label, err := e.canonicalize(append(ps.buf.b, ps.rawKey[:ps.prefix]...), string(ps.raw), req)
	ps.buf.b = buf
	if err != nil {
		e.fail(w, http.StatusBadRequest, err.Error(), ps.start)
		return
	}
	cacheKey := string(buf[mark:])
	// A differently-spelled equivalent request may have already cached
	// the canonical response.
	if cached, ok := s.cache.view(cacheKey); ok {
		s.rememberSpelling(ps, label, cacheKey)
		s.respondAnswer(w, e, label, outcomeHit, cached, ps.start)
		return
	}

	// Singleflight: the first request for a cold key leads — it runs the
	// solve itself, on this goroutine — and any concurrent identical
	// request follows, waiting on the same in-flight call. The leader's
	// trace rides the outcome, so followers can surface the phase
	// breakdown too.
	if s.beforeJoin != nil {
		s.beforeJoin()
	}
	call, leader := s.flight.join(cacheKey)
	var out outcome
	if leader {
		// The cache probe and the join are not one step: a solve for this
		// key may have filled the cache and retired its flight in between
		// (it fills before it retires, so a leader that finds no flight
		// finds the entry). Without this re-probe a late arrival in a
		// stampede leads a second solve.
		if cached, ok := s.cache.view(cacheKey); ok {
			s.flight.finish(cacheKey, call, outcome{body: cached})
			s.rememberSpelling(ps, label, cacheKey)
			s.respondAnswer(w, e, label, outcomeHit, cached, ps.start)
			return
		}
		var gone bool
		if out, gone = s.lead(r.Context(), e, req, label, ps, cacheKey, call); gone {
			e.fail(w, http.StatusServiceUnavailable, "request cancelled", ps.start)
			return
		}
	} else {
		// A follower waits past the solve deadline by degradeGrace: the
		// solve's own deadline fires first and delivers a degraded result,
		// so this backstop only trips when a solve fails to degrade
		// promptly (e.g. wedged outside the search loop).
		backstop := time.NewTimer(s.opts.RequestTimeout + s.degradeGrace)
		defer backstop.Stop()
		select {
		case <-call.done:
			out = call.out
		case <-backstop.C:
			s.flight.leave(cacheKey, call)
			e.fail(w, http.StatusServiceUnavailable, "request timed out", ps.start)
			return
		case <-r.Context().Done():
			s.flight.leave(cacheKey, call)
			e.fail(w, http.StatusServiceUnavailable, "request cancelled", ps.start)
			return
		}
	}
	if s.respondSolved(w, r, e, label, leader, out, ps.start) {
		s.rememberSpelling(ps, label, cacheKey)
	}
}

// rememberSpelling maps the request's verbatim body to its label and
// canonical cache key in the raw-key cache, so that a byte-identical
// repeat skips canonicalization. The entry shares cacheKey, the string
// the response is cached under. Only a body that was just answered 200
// is remembered: a body whose solve fails, or is shed, leaves no entry
// in any cache.
func (s *Server) rememberSpelling(ps probeState, label int, cacheKey string) {
	s.rawKeys.PutRef(string(ps.rawKey), label, cacheKey)
}

// respondAnswer serves a 200 that answers the request's own problem — a
// hit, a solve (degraded or not) or a coalesced join — and counts it
// under its scenario label.
//
//mvlint:hotpath
func (s *Server) respondAnswer(w http.ResponseWriter, e *endpoint, label int, o outcomeKind, body []byte, start time.Time) {
	s.m.scenarios[label].Inc()
	e.respond(w, http.StatusOK, body, o, start)
}

// respondSolved maps a finished solve's outcome onto the HTTP response
// and the outcome-split instruments, and reports whether the response
// was a 200.
func (s *Server) respondSolved(w http.ResponseWriter, r *http.Request, e *endpoint, label int, leader bool, out outcome, start time.Time) bool {
	if out.worker != "" {
		w.Header().Set("X-Worker", out.worker)
	}
	switch {
	case out.shed:
		w.Header().Set("Retry-After", strconv.FormatInt(ceilSeconds(out.retryAfter), 10))
		msg := out.shedMsg
		if msg == "" {
			msg = "overloaded: solve queue full, retry later"
		}
		e.respond(w, http.StatusTooManyRequests, errorBody(msg), outcomeShed, start)
	case out.panicked:
		e.respond(w, http.StatusInternalServerError, errorBody(out.err.Error()), outcomePanic, start)
	case out.err != nil:
		status := http.StatusBadRequest
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		e.fail(w, status, out.err.Error(), start)
	default:
		if out.phases != nil && wantPhases(r) {
			w.Header().Set("X-Solve-Phases", out.phases.String())
		}
		o := outcomeCoalesced
		if leader {
			o = outcomeSolve
		}
		if out.degraded {
			w.Header()["X-Degraded"] = headerValTrue
			if leader {
				o = outcomeDegraded
			}
		}
		s.respondAnswer(w, e, label, o, out.body, start)
		return true
	}
	return false
}

// ceilSeconds rounds d up to whole seconds for a Retry-After header,
// never below 1.
func ceilSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// lead runs the solve of the flight call this request leads, in place:
// a miss stays on the goroutine that asked. The solve's context is the
// call's own (solveContext) — not the request's, because a follower may
// outlive the leader's request — with the RequestTimeout deadline, and
// that deadline is what bounds the leader: admission.acquire, the search
// gate and the cluster transport all honour it. The leader is one of the
// call's waiters like any follower, so its client going away (rctx) is a
// leave: with a follower still waiting the solve carries on for it, and
// with none the flight group cancels the solve and retires the key. gone
// reports that this happened; the outcome is then nobody's to serve here.
// A request context that can never be cancelled registers no leave.
//
// net/http swallows a panic on a request goroutine, so every exit —
// return or panic, from anywhere in the body (the solver, the slow-log
// writer, the cache fill) — goes through the one deferred block: a panic
// becomes the panicked outcome, the admission slot is released, and only
// then is the outcome published and the key retired. The slot is free
// before any waiter can see the outcome, so a client's next request is
// never shed against its own finished solve.
func (s *Server) lead(rctx context.Context, e *endpoint, req memoRequest, label int, ps probeState, cacheKey string, call *flightCall) (out outcome, gone bool) {
	ctx := call.ctx.start(s.opts.RequestTimeout)
	var stop func() bool
	if rctx.Done() != nil {
		stop = context.AfterFunc(rctx, func() { s.flight.leave(cacheKey, call) })
	}
	s.inflightSolves.Add(1)
	admitted := false
	defer func() {
		if p := recover(); p != nil {
			out = outcome{err: fmt.Errorf("solve panic: %v", p), panicked: true}
		}
		if admitted {
			e.adm.release()
		}
		s.flight.finish(cacheKey, call, out)
		s.inflightSolves.Add(-1)
		gone = stop != nil && !stop()
	}()

	if s.cluster != nil {
		return s.runForward(ctx, e, ps.account, cacheKey[ps.prefix:], cacheKey), false
	}
	ok, retry := e.adm.admit(s.opts.RequestTimeout)
	if !ok {
		return outcome{shed: true, retryAfter: retry}, false
	}
	if !e.adm.acquire(ctx) {
		// Abandoned while queued: every waiter already left.
		return outcome{err: ctx.Err()}, false
	}
	admitted = true
	return s.runSolve(ctx, e, req, label, cacheKey, &call.trace), false
}

// runSolve is an admitted leader's work: the solve itself, its
// telemetry (on tr, the flight call's trace) and the cache fill. It runs
// inside lead's recovered region, beforeSolve included, so an injected
// fault meets the same containment a real panic would hit.
func (s *Server) runSolve(ctx context.Context, e *endpoint, req memoRequest, label int, cacheKey string, tr *obs.Trace) outcome {
	s.m.solves.Inc()
	t0 := tr.StartTimer()
	if s.beforeSolve != nil {
		s.beforeSolve(ctx, cacheKey)
	}
	ws := workspacePool.Get().(*core.Workspace)
	b, degraded, err := req.solve(ctx, tr, ws)
	// The one release point: solve returned, so the body is a copy and
	// nothing built on ws is read again. A solve that panicked never
	// gets here, and its workspace is dropped; so is one grown past
	// maxPooledWorkspace.
	if ws.Bytes() <= maxPooledWorkspace {
		workspacePool.Put(ws)
	}
	tr.ObserveSince(obs.PhaseTotal, t0)
	s.m.observePhases(tr)
	s.logSlowSolve(e.name, knownLabels[label], tr)
	return s.fill(ctx, cacheKey, outcome{body: b, err: err, phases: tr, degraded: degraded})
}

// fill memoizes a leader's outcome under cacheKey, solved here or
// forwarded, and returns it. Only a successful, non-degraded body is
// cached: degraded bodies are timing-dependent, sheds and errors have
// nothing to cache, and nobody is waiting for an abandoned solve's
// answer (the knapsack path has no cancellation point, so it finishes
// anyway). A local solve
// is never shed and never succeeds with an empty body, so those two
// tests only ever fail for a forward.
func (s *Server) fill(ctx context.Context, cacheKey string, out outcome) outcome {
	if out.err == nil && !out.degraded && !out.shed && len(out.body) > 0 && !abandoned(ctx) {
		s.cache.Put(cacheKey, out.body)
	}
	return out
}

// abandoned reports whether the flight group cancelled the solve context
// because its last waiter left. A solve that merely ran past its
// deadline still has waiters (they stay for degradeGrace) and is not
// abandoned: its result is served and memoized like any other.
func abandoned(ctx context.Context) bool {
	return errors.Is(ctx.Err(), context.Canceled)
}

// wantPhases reports whether the request opted into the X-Solve-Phases
// debug header. A plain substring probe of the raw query keeps the cold
// path from paying url.Query()'s map build; the probe only ever runs on
// solve/coalesced responses.
func wantPhases(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "debug=phases")
}

// logSlowSolve writes one structured JSON line for a cold solve that
// reached the configured threshold, carrying the per-phase breakdown —
// the "where did this request's time go" record the trace exists for.
func (s *Server) logSlowSolve(endpoint, label string, tr *obs.Trace) {
	th := s.opts.SlowSolveThreshold
	if th <= 0 || tr.Duration(obs.PhaseTotal) < th {
		return
	}
	b := make([]byte, 0, 256)
	b = append(b, `{"msg":"slow_solve","endpoint":"`...)
	b = append(b, endpoint...)
	b = append(b, `","label":"`...)
	b = append(b, label...)
	b = append(b, `","duration_seconds":`...)
	b = strconv.AppendFloat(b, tr.Duration(obs.PhaseTotal).Seconds(), 'g', -1, 64)
	b = append(b, `,"phases":`...)
	b = tr.AppendJSON(b)
	b = append(b, '}', '\n')
	// Deferred: the writer is the operator's, and a panic in it is
	// contained by the leader — the lock must not stay behind.
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	s.slowLog.Write(b)
}

// TariffsResponse is the body of GET /v1/tariffs: each built-in provider
// in the pricing wire format, plus pre-rendered tables for display.
type TariffsResponse struct {
	Providers []json.RawMessage `json:"providers"`
	Tables    []*report.Table   `json:"tables"`
}

func (s *Server) handleTariffs(w http.ResponseWriter, r *http.Request) {
	var resp TariffsResponse
	for _, name := range pricing.ProviderNames() {
		p, err := pricing.Lookup(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		raw, err := pricing.MarshalProvider(p)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Providers = append(resp.Providers, raw)
		resp.Tables = append(resp.Tables, TariffTables(p)...)
	}
	writeJSON(w, http.StatusOK, resp)
}

// TariffTables renders a provider's tariff for display: its compute
// table, one row per instance type, and its storage tier table. GET
// /v1/tariffs serves them and mvcloud -tariffs prints them.
func TariffTables(p pricing.Provider) []*report.Table {
	ct := report.NewTable(fmt.Sprintf("%s — compute (%s billing)", p.Name, p.Compute.Granularity),
		"instance", "$/hour", "RAM", "ECU", "local storage")
	for _, in := range p.Compute.InstanceNames() {
		it, _ := p.Compute.Instance(in)
		ct.AddRow(it.Name, it.PricePerHour, it.RAM, it.ECU, it.LocalStorage)
	}
	st := report.NewTable(fmt.Sprintf("%s — storage ($/GB/month, %s)", p.Name, p.Storage.Table.Mode),
		"up to", "price")
	for _, tier := range p.Storage.Table.Tiers {
		bound := "∞"
		if tier.UpTo != 0 {
			bound = tier.UpTo.String()
		}
		st.AddRow(bound, tier.PricePerGB)
	}
	return []*report.Table{ct, st}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot(time.Now()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// encBufPool pools the encode buffers behind writeJSON, so the
// uncached GET endpoints (stats, tariffs, healthz) don't grow a fresh
// marshal buffer per request.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); encBufPool.Put(buf) }()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, status, buf.Bytes(), nil)
}

// Shared header values: assigning a preallocated []string into the
// header map keeps the cache-hit path allocation-free where
// Header().Set would build a fresh single-element slice per call. The
// slices (these and xCache's) are never mutated and the keys are already
// in canonical form.
var (
	headerValJSON = []string{"application/json"}
	headerValTrue = []string{"true"}
)

// contentLength is the Content-Length header value of body: for a body
// under maxInternedLength bytes, the one value of its length, made the
// first time a body of that length is written and shared, unchanged,
// by every later one — so a response, a cache hit's included, formats
// and allocates nothing for it, and a header map may hold it for as long
// as it likes.
//
//mvlint:hotpath
func contentLength(body []byte) []string {
	n := len(body)
	if n >= maxInternedLength {
		return []string{strconv.Itoa(n)}
	}
	chunk := &contentLengths[n>>8]
	if chunk.Load() == nil {
		chunk.CompareAndSwap(nil, new([256]atomic.Pointer[[1]string]))
	}
	v := &chunk.Load()[n&255]
	if v.Load() == nil {
		v.CompareAndSwap(nil, &[1]string{strconv.Itoa(n)})
	}
	return v.Load()[:]
}

// maxInternedLength bounds the body lengths contentLength interns: at
// most 64 Ki values, made 256 lengths to a chunk as lengths are seen.
const maxInternedLength = 1 << 16

var contentLengths [maxInternedLength >> 8]atomic.Pointer[[256]atomic.Pointer[[1]string]]

// writeBody sends a pre-marshaled, newline-terminated JSON body with
// its Content-Length and the X-Cache header cache when it is non-nil.
// The length is always declared: left to net/http, a body over 2 KB goes
// out chunked, which is one more write to the socket per response. The
// body may alias cache-owned memory: it is only ever written to the
// wire, never mutated.
//
//mvlint:hotpath
func writeBody(w http.ResponseWriter, status int, body []byte, cache []string) {
	h := w.Header()
	h["Content-Type"] = headerValJSON
	h["Content-Length"] = contentLength(body)
	if cache != nil {
		h["X-Cache"] = cache
	}
	w.WriteHeader(status)
	w.Write(body)
}

// errorBody is the JSON body of an error response: {"error":msg}, as
// encoding/json writes it. Sheds are built here, so this runs hottest
// when the daemon is overloaded.
func errorBody(msg string) []byte {
	b := make([]byte, 0, len(`{"error":""}`)+len(msg)+1)
	b = append(b, `{"error":`...)
	b = jsonenc.AppendString(b, msg)
	return append(b, '}', '\n')
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeBody(w, status, errorBody(msg), nil)
}
