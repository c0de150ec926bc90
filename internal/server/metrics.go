package server

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"vmcloud/internal/obs"
)

// outcomeKind classifies how a memoized request was served, the
// `outcome` label of the HTTP metrics: a response-cache hit, a follower
// coalesced onto another request's in-flight solve, a solve run by this
// request (the leader), an error (bad request, timeout, cancel, failed
// solve), or one of the overload outcomes — shed (429 under admission
// control), degraded (solve stopped at its deadline with the best
// incumbent), stale (shed request served an evicted cache entry), panic
// (solve panicked and was contained to a 500).
type outcomeKind uint8

const (
	outcomeHit outcomeKind = iota
	outcomeCoalesced
	outcomeSolve
	outcomeError
	outcomeShed
	outcomeDegraded
	outcomeStale
	outcomePanic
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"hit", "coalesced", "solve", "error", "shed", "degraded", "stale", "panic"}

// endpointMetrics is one POST endpoint's outcome-split instruments,
// fully resolved at registration so the request path never touches a
// label or a map.
type endpointMetrics struct {
	requests [numOutcomes]*obs.Counter
	latency  [numOutcomes]*obs.Histogram
	// decodeFallback counts bodies the request decoder's fast grammar
	// declined and encoding/json decoded (or rejected) instead.
	decodeFallback *obs.Counter
}

// observe records one finished request: two atomic ops, no allocation —
// this is what the cache-hit path pays for its telemetry.
//
//mvlint:hotpath
func (em *endpointMetrics) observe(o outcomeKind, d time.Duration) {
	em.requests[o].Inc()
	em.latency[o].Observe(d)
}

// serverMetrics is the server's registered instrument set.
type serverMetrics struct {
	advise  *endpointMetrics
	compare *endpointMetrics
	sweep   *endpointMetrics
	// inflight tracks requests currently inside a handler.
	inflight *obs.Gauge
	// phases aggregates per-phase cold-solve durations across requests;
	// indexed by obs.Phase.
	phases [obs.NumPhases]*obs.Histogram
}

// memoizedEndpoints are the POST endpoints with outcome-split series.
var memoizedEndpoints = [...]string{"advise", "compare", "sweep"}

// plainEndpoints are the GET endpoints; they get request-count series
// only (their latency is dominated by JSON encoding, not worth a
// histogram each).
var plainEndpoints = [...]string{"tariffs", "stats", "healthz", "metrics", "version"}

func newEndpointMetrics(reg *obs.Registry, endpoint string) *endpointMetrics {
	em := &endpointMetrics{
		decodeFallback: reg.Counter("mvcloud_request_decode_fallback_total",
			"Request bodies outside the hand-written decoder's grammar, decoded by encoding/json instead.",
			"endpoint", endpoint),
	}
	for o := outcomeKind(0); o < numOutcomes; o++ {
		em.requests[o] = reg.Counter("mvcloud_http_requests_total",
			"Finished HTTP requests by endpoint and serving outcome.",
			"endpoint", endpoint, "outcome", outcomeNames[o])
		em.latency[o] = reg.Histogram("mvcloud_http_request_duration_seconds",
			"HTTP request latency by endpoint and serving outcome.",
			obs.DefLatencyBuckets,
			"endpoint", endpoint, "outcome", outcomeNames[o])
	}
	return em
}

// newServerMetrics registers the server's full series set on reg. The
// callback series (cache occupancy, the /v1/stats counters re-exported
// as families, process uptime) read their sources at exposition time,
// so they cost the hot path nothing at all.
func (s *Server) newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		advise:   newEndpointMetrics(reg, "advise"),
		compare:  newEndpointMetrics(reg, "compare"),
		sweep:    newEndpointMetrics(reg, "sweep"),
		inflight: reg.Gauge("mvcloud_http_inflight_requests", "Requests currently inside a handler."),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m.phases[p] = reg.Histogram("mvcloud_solve_phase_duration_seconds",
			"Cold-solve time by pipeline phase (lattice, candidates, kernel, bind, solve, encode, total).",
			obs.DefLatencyBuckets, "phase", p.String())
	}

	for _, c := range []struct {
		name  string
		cache *lruCache
	}{{"responses", s.cache}, {"rawkeys", s.rawKeys}} {
		cache := c.cache
		reg.GaugeFunc("mvcloud_cache_entries", "Resident entries per memoization cache.",
			func() float64 { return float64(cache.Len()) }, "cache", c.name)
		reg.GaugeFunc("mvcloud_cache_bytes", "Resident key+value bytes per memoization cache.",
			func() float64 { return float64(cache.Bytes()) }, "cache", c.name)
		reg.CounterFunc("mvcloud_cache_evictions_total", "LRU evictions per memoization cache.",
			func() float64 { return float64(cache.Evictions()) }, "cache", c.name)
	}

	// The /v1/stats counters, re-exported as series so dashboards need
	// only one source of truth. Per-endpoint request counts cover every
	// route; the memoization split covers the POST endpoints.
	st := s.stats
	for _, e := range memoizedEndpoints {
		e := e
		reg.CounterFunc("mvcloud_stats_requests_total", "Requests received by endpoint (/v1/stats by_endpoint).",
			func() float64 { return float64(st.endpointRequests(e)) }, "endpoint", e)
		reg.CounterFunc("mvcloud_stats_cache_hits_total", "Response-cache hits by endpoint.",
			func() float64 { return float64(st.endpointHits(e)) }, "endpoint", e)
		reg.CounterFunc("mvcloud_stats_cache_misses_total", "Response-cache misses by endpoint.",
			func() float64 { return float64(st.endpointMisses(e)) }, "endpoint", e)
		reg.CounterFunc("mvcloud_stats_coalesced_total", "Requests served by joining an in-flight solve, by endpoint.",
			func() float64 { return float64(st.endpointCoalesced(e)) }, "endpoint", e)
	}
	for _, e := range plainEndpoints {
		e := e
		reg.CounterFunc("mvcloud_stats_requests_total", "Requests received by endpoint (/v1/stats by_endpoint).",
			func() float64 { return float64(st.endpointRequests(e)) }, "endpoint", e)
	}
	reg.CounterFunc("mvcloud_stats_solves_total", "Solves actually executed (misses minus coalesced joins).",
		func() float64 { return float64(st.solveCount()) })
	reg.CounterFunc("mvcloud_stats_errors_total", "Requests that failed (bad request, timeout, cancel, solve error).",
		func() float64 { return float64(st.errorCount()) })
	reg.CounterFunc("mvcloud_stats_shed_total", "Requests shed by admission control (429 + Retry-After).",
		func() float64 { return float64(st.shedCount()) })
	reg.CounterFunc("mvcloud_stats_degraded_total", "Responses served degraded (solve stopped at its deadline with the best incumbent).",
		func() float64 { return float64(st.degradedCount()) })
	reg.CounterFunc("mvcloud_stats_stale_total", "Shed requests served a stale evicted cache entry (X-Cache: stale).",
		func() float64 { return float64(st.staleCount()) })
	reg.CounterFunc("mvcloud_stats_solve_panics_total", "Solver panics contained to 500 responses.",
		func() float64 { return float64(st.panicCount()) })

	start := s.stats.start
	reg.GaugeFunc("mvcloud_process_start_time_seconds", "Unix time the server was constructed.",
		func() float64 { return float64(start.UnixNano()) / 1e9 })
	reg.GaugeFunc("mvcloud_process_uptime_seconds", "Seconds since the server was constructed.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("mvcloud_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	return m
}

// observePhases folds one cold solve's trace into the per-phase
// histograms, skipping phases the solve never entered.
func (m *serverMetrics) observePhases(tr *obs.Trace) {
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if d := tr.Duration(p); d > 0 {
			m.phases[p].Observe(d)
		}
	}
}

// handleMetrics serves GET /metrics: the server's registry followed by
// the process-wide obs.Default (solver counters), in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); encBufPool.Put(buf) }()
	if err := s.reg.WritePrometheus(buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := obs.Default.WritePrometheus(buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// VersionResponse is the body of GET /v1/version.
type VersionResponse struct {
	// Module and Version identify the main module as built.
	Module  string `json:"module"`
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision/Time/Modified are the VCS stamp when the binary was built
	// from a checkout (empty under plain `go test`).
	Revision string `json:"vcs_revision,omitempty"`
	Time     string `json:"vcs_time,omitempty"`
	Modified bool   `json:"vcs_modified,omitempty"`
}

// buildVersion reads the build-info stamp once; the result never
// changes within a process.
func buildVersion() VersionResponse {
	v := VersionResponse{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Path
	v.Version = bi.Main.Version
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			v.Revision = kv.Value
		case "vcs.time":
			v.Time = kv.Value
		case "vcs.modified":
			v.Modified = kv.Value == "true"
		}
	}
	return v
}

var versionInfo = buildVersion()

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionInfo)
}
