package server

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"vmcloud/internal/obs"
)

// routeCounter is one route's arrival counter,
// mvcloud_stats_requests_total{endpoint=name}.
type routeCounter struct {
	name string
	n    *obs.Counter
}

// serverMetrics is the server's registered instrument set, less the
// per-endpoint rows (endpoint.go).
type serverMetrics struct {
	// received counts requests per route as they arrive, all eight
	// routes, in registration order (/v1/stats requests and by_endpoint).
	received []routeCounter
	// solves counts solves actually executed — the number the
	// singleflight regression tests pin: under a K-way stampede of one key
	// it must advance by exactly 1.
	solves *obs.Counter
	// scenarios counts answered requests (hit, miss or coalesced) per
	// stats label, indexed like knownLabels.
	scenarios [len(knownLabels)]*obs.Counter
	// inflight tracks requests currently inside a handler.
	inflight *obs.Gauge
	// phases aggregates per-phase cold-solve durations across requests;
	// indexed by obs.Phase.
	phases [obs.NumPhases]*obs.Histogram
}

// newServerMetrics registers the series that belong to no single
// endpoint. The callback series (cache occupancy, process uptime) read
// state that has no other copy at exposition time, so they cost the hot
// path nothing at all; every request counter is an instrument the
// request path adds to directly.
func (s *Server) newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		solves:   reg.Counter("mvcloud_stats_solves_total", "Solves actually executed (misses minus coalesced joins)."),
		inflight: reg.Gauge("mvcloud_http_inflight_requests", "Requests currently inside a handler."),
	}
	for i, l := range knownLabels {
		m.scenarios[i] = reg.Counter("mvcloud_stats_scenario_requests_total",
			"Requests answered from the cache, a solve or a coalesced join, by scenario (/v1/stats by_scenario).",
			"scenario", l)
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m.phases[p] = reg.Histogram("mvcloud_solve_phase_duration_seconds",
			"Cold-solve time by pipeline phase (lattice, candidates, kernel, bind, solve, encode, total).",
			obs.DefLatencyBuckets, "phase", p.String())
	}

	for _, c := range []struct {
		name  string
		cache *sieveCache
	}{{"responses", s.cache}, {"rawkeys", s.rawKeys}} {
		cache := c.cache
		reg.GaugeFunc("mvcloud_cache_entries", "Resident entries per memoization cache.",
			func() float64 { return float64(cache.Len()) }, "cache", c.name)
		reg.GaugeFunc("mvcloud_cache_bytes", "Resident key+value bytes per memoization cache.",
			func() float64 { return float64(cache.Bytes()) }, "cache", c.name)
		reg.CounterFunc("mvcloud_cache_evictions_total", "Capacity evictions per memoization cache.",
			func() float64 { return float64(cache.Evictions()) }, "cache", c.name)
	}

	start := s.start
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
