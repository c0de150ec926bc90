package server

import (
	"net/http"
	"time"

	"vmcloud/internal/obs"
)

// outcomeKind classifies how a memoized request was served, the
// `outcome` label of the HTTP metrics: a response-cache hit, a follower
// coalesced onto another request's in-flight solve, a solve run by this
// request (the leader), an error (bad request, timeout, cancel, failed
// solve), or one of the overload outcomes — shed (429 under admission
// control), degraded (solve stopped at its deadline with the best
// incumbent), panic (solve panicked and was contained to a 500).
type outcomeKind uint8

const (
	outcomeHit outcomeKind = iota
	outcomeCoalesced
	outcomeSolve
	outcomeError
	outcomeShed
	outcomeDegraded
	outcomePanic
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"hit", "coalesced", "solve", "error", "shed", "degraded", "panic"}

// xCache is each outcome's X-Cache header value; nil (the error
// outcomes) sends none. A leader's response is a miss whether or not
// the deadline cut its solve short.
var xCache = [numOutcomes][]string{
	outcomeHit:       {"hit"},
	outcomeCoalesced: {"coalesced"},
	outcomeSolve:     {"miss"},
	outcomeDegraded:  {"miss"},
}

// endpoint is one memoized POST route as a row: everything the shared
// flow (serveMemoized → finishMemoized → runSolve / runForward) needs to
// know about the route it is serving. Server.endpoints holds the rows;
// routes are registered, and /v1/stats is rendered, by looping over it.
type endpoint struct {
	// name is the route suffix (POST /v1/<name> and
	// /v1/t/{account}/<name>), the cache-key namespace and the `endpoint`
	// metric label.
	name string
	// newReq returns the endpoint's empty request; the miss path decodes
	// the body into it, and it carries the decoded state to the solve.
	newReq func() memoRequest
	// adm is the admission class the endpoint's solve leaders queue in.
	adm *admission

	// The ceilings: the server-side bounds checkCeilings holds a
	// normalized request to, beyond what its Normalize rejects. A request
	// reports 0 for a field it does not carry, which no bound here is
	// below. stepsText words a pareto steps rejection (steps, bound), grid
	// names the grid in a grid-size one.
	maxFactRows                      int64
	maxSteps, maxBreakEven, maxCells int
	stepsText, grid                  string

	// The instruments are fully resolved at registration, so the request
	// path never touches a label or a map. requests is also what /v1/stats
	// reads its hit/miss/coalesced/error/overload counts from.
	requests [numOutcomes]*obs.Counter
	latency  [numOutcomes]*obs.Histogram
	// decodeFallback counts bodies the request decoder's fast grammar
	// declined and encoding/json decoded (or rejected) instead.
	decodeFallback *obs.Counter
}

// newEndpoint completes row e: it registers the row's series on reg and
// adds its solve latencies to its admission class's wait estimate.
func newEndpoint(reg *obs.Registry, e endpoint) *endpoint {
	name := e.name
	e.decodeFallback = reg.Counter("mvcloud_request_decode_fallback_total",
		"Request bodies outside the hand-written decoder's grammar, decoded by encoding/json instead.",
		"endpoint", name)
	for o := outcomeKind(0); o < numOutcomes; o++ {
		e.requests[o] = reg.Counter("mvcloud_http_requests_total",
			"Finished HTTP requests by endpoint and serving outcome.",
			"endpoint", name, "outcome", outcomeNames[o])
		e.latency[o] = reg.Histogram("mvcloud_http_request_duration_seconds",
			"HTTP request latency by endpoint and serving outcome.",
			obs.DefLatencyBuckets,
			"endpoint", name, "outcome", outcomeNames[o])
	}
	e.adm.lat = append(e.adm.lat, e.latency[outcomeSolve], e.latency[outcomeDegraded])
	return &e
}

// count records the request's outcome. It runs before the response is
// written: /v1/stats is read from these counters, so a client that has
// its answer in hand must already find itself counted there.
//
//mvlint:hotpath
func (e *endpoint) count(o outcomeKind) { e.requests[o].Inc() }

// observe records the request's latency, measured from start to after
// the response was written.
//
//mvlint:hotpath
func (e *endpoint) observe(o outcomeKind, start time.Time) {
	e.latency[o].Observe(time.Since(start))
}

// respond finishes a request: count, write, observe, in that order (see
// count) — three atomic ops and no allocation, which is all the
// cache-hit path pays for its telemetry.
//
//mvlint:hotpath
func (e *endpoint) respond(w http.ResponseWriter, status int, body []byte, o outcomeKind, start time.Time) {
	e.count(o)
	writeBody(w, status, body, xCache[o])
	e.observe(o, start)
}

// fail finishes a request that ends in an error — a bad request, a
// timeout, a cancel, a failed solve; shed and panic are outcomes of
// their own.
func (e *endpoint) fail(w http.ResponseWriter, status int, msg string, start time.Time) {
	e.respond(w, status, errorBody(msg), outcomeError, start)
}
