package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/obs"
)

func scrape(t *testing.T, s *Server) []obs.Sample {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("GET /metrics: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, err := obs.ValidateText(w.Body.Bytes())
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, w.Body.String())
	}
	return samples
}

// findSample returns the value of the sample matching name and every
// given label, and whether it exists.
func findSample(samples []obs.Sample, name string, labels map[string]string) (float64, bool) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Label(k) != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// TestMetricsEndpointValidates is the format gate CI leans on: every
// render must satisfy the exposition contract (ValidateText), and the
// registered series set must cover the three memoized endpoints across
// all eight outcomes plus the solver, cache, stats and process families —
// all present from the first scrape, before any traffic, because series
// are preallocated at registration.
func TestMetricsEndpointValidates(t *testing.T) {
	s := New(Options{})
	samples := scrape(t, s)

	for _, ep := range memoizedEndpoints {
		for _, oc := range outcomeNames {
			lbl := map[string]string{"endpoint": ep, "outcome": oc}
			if _, ok := findSample(samples, "mvcloud_http_requests_total", lbl); !ok {
				t.Errorf("missing series mvcloud_http_requests_total{endpoint=%q,outcome=%q}", ep, oc)
			}
			if _, ok := findSample(samples, "mvcloud_http_request_duration_seconds_count", lbl); !ok {
				t.Errorf("missing histogram series for endpoint=%q outcome=%q", ep, oc)
			}
		}
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if _, ok := findSample(samples, "mvcloud_solve_phase_duration_seconds_count",
			map[string]string{"phase": p.String()}); !ok {
			t.Errorf("missing phase histogram for %q", p)
		}
	}
	for _, name := range []string{
		"mvcloud_solver_kernel_builds_total",
		"mvcloud_solver_kernel_rebinds_total",
		"mvcloud_solver_incremental_moves_total",
		"mvcloud_solver_search_evals_total",
		"mvcloud_solver_dp_states_total",
		"mvcloud_solver_dp_frontiers_total",
		"mvcloud_solver_dp_all_fit_total",
		"mvcloud_solver_pricing_moves_total",
	} {
		if _, ok := findSample(samples, name, nil); !ok {
			t.Errorf("missing solver series %s", name)
		}
	}
	for _, cache := range []string{"responses", "rawkeys"} {
		for _, name := range []string{"mvcloud_cache_entries", "mvcloud_cache_bytes", "mvcloud_cache_evictions_total"} {
			if _, ok := findSample(samples, name, map[string]string{"cache": cache}); !ok {
				t.Errorf("missing series %s{cache=%q}", name, cache)
			}
		}
	}
	for _, name := range []string{
		"mvcloud_stats_solves_total",
		"mvcloud_process_start_time_seconds", "mvcloud_process_uptime_seconds",
		"mvcloud_go_goroutines", "mvcloud_http_inflight_requests",
	} {
		if _, ok := findSample(samples, name, nil); !ok {
			t.Errorf("missing series %s", name)
		}
	}
	// Arrivals are counted on all eight routes, labels on all six.
	for _, rc := range s.m.received {
		if _, ok := findSample(samples, "mvcloud_stats_requests_total", map[string]string{"endpoint": rc.name}); !ok {
			t.Errorf("missing series mvcloud_stats_requests_total{endpoint=%q}", rc.name)
		}
	}
	if len(s.m.received) != 8 {
		t.Errorf("%d routes counted, want 8", len(s.m.received))
	}
	for _, l := range knownLabels {
		if _, ok := findSample(samples, "mvcloud_stats_scenario_requests_total", map[string]string{"scenario": l}); !ok {
			t.Errorf("missing series mvcloud_stats_scenario_requests_total{scenario=%q}", l)
		}
	}
	// The scrape itself is in flight while rendering, so the gauge reads 1.
	if v, ok := findSample(samples, "mvcloud_http_inflight_requests", nil); !ok || v != 1 {
		t.Errorf("inflight gauge = %g during scrape, want 1 (the scrape itself)", v)
	}

	// One mv1 miss whose budget cannot buy every view that costs money
	// runs the knapsack DP's frontier (at $25 they all fit, and the DP
	// returns them without one), so the solver's work counters have
	// moved by the next scrape (and the render still validates with
	// traffic behind it).
	req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(adviseBody("mv1", `"budget":1`)))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("mv1 advise: status %d, X-Cache %q: %s", w.Code, w.Header().Get("X-Cache"), w.Body.String())
	}
	after := scrape(t, s)
	for _, name := range []string{"mvcloud_solver_dp_states_total", "mvcloud_solver_dp_frontiers_total"} {
		if v, _ := findSample(after, name, nil); v <= 0 {
			t.Errorf("%s = %g after a DP miss, want > 0", name, v)
		}
	}
}

// TestMetricsOutcomeCounts drives known traffic and checks the outcome
// split: one solve, two hits, one error on advise, beside the executed
// solves and the per-scenario count.
func TestMetricsOutcomeCounts(t *testing.T) {
	s := New(Options{})
	body := `{"scenario":"mv1","budget":25,"queries":10,"frequency":30}`
	for i, want := range []string{"miss", "hit", "hit"} {
		req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 200 || w.Header().Get("X-Cache") != want {
			t.Fatalf("request %d: status %d, X-Cache %q (want %s)", i, w.Code, w.Header().Get("X-Cache"), want)
		}
	}
	req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(`{"scenario":"nope"}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code == 200 {
		t.Fatal("bad scenario accepted")
	}

	samples := scrape(t, s)
	for oc, want := range map[string]float64{"solve": 1, "hit": 2, "error": 1, "coalesced": 0} {
		lbl := map[string]string{"endpoint": "advise", "outcome": oc}
		if v, _ := findSample(samples, "mvcloud_http_requests_total", lbl); v != want {
			t.Errorf("requests_total{outcome=%q} = %g, want %g", oc, v, want)
		}
		if v, _ := findSample(samples, "mvcloud_http_request_duration_seconds_count", lbl); v != want {
			t.Errorf("duration_seconds_count{outcome=%q} = %g, want %g", oc, v, want)
		}
	}
	if v, _ := findSample(samples, "mvcloud_stats_scenario_requests_total", map[string]string{"scenario": "mv1"}); v != 3 {
		t.Errorf("stats mv1 requests = %g, want 3", v)
	}
	if v, _ := findSample(samples, "mvcloud_stats_solves_total", nil); v != 1 {
		t.Errorf("stats solves = %g, want 1", v)
	}
	// The cold solve must have fed the per-phase histograms.
	if v, _ := findSample(samples, "mvcloud_solve_phase_duration_seconds_count",
		map[string]string{"phase": "total"}); v != 1 {
		t.Errorf("phase total count = %g, want 1", v)
	}
	if v, _ := findSample(samples, "mvcloud_solve_phase_duration_seconds_count",
		map[string]string{"phase": "solve"}); v < 1 {
		t.Errorf("phase solve count = %g, want >= 1", v)
	}
}

// parsePhases decodes an X-Solve-Phases header value.
func parsePhases(t *testing.T, header string) map[string]time.Duration {
	t.Helper()
	out := map[string]time.Duration{}
	for _, pair := range strings.Split(header, ";") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			t.Fatalf("malformed phase pair %q in %q", pair, header)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", pair, err)
		}
		out[name] = d
	}
	return out
}

// TestDebugPhasesHeader: a cold solve with ?debug=phases carries the
// per-phase breakdown, the phases are disjoint sections of the total
// span (so they sum to at most the total), and cache hits never carry
// the header (the fast path never builds a trace).
func TestDebugPhasesHeader(t *testing.T) {
	s := New(Options{})
	body := `{"scenario":"mv1","budget":25,"queries":10,"frequency":30}`
	req := httptest.NewRequest("POST", "/v1/advise?debug=phases", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("cold request: status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	header := w.Header().Get("X-Solve-Phases")
	if header == "" {
		t.Fatal("cold solve with debug=phases has no X-Solve-Phases header")
	}
	phases := parsePhases(t, header)
	total, ok := phases["total"]
	if !ok || total <= 0 {
		t.Fatalf("no total phase in %q", header)
	}
	for _, want := range []string{"lattice", "candidates", "kernel", "bind", "solve", "encode"} {
		if phases[want] <= 0 {
			t.Errorf("phase %q missing from %q", want, header)
		}
	}
	var sum time.Duration
	for name, d := range phases {
		if name == "total" {
			continue
		}
		if d > total {
			t.Errorf("phase %s (%v) exceeds total (%v)", name, d, total)
		}
		sum += d
	}
	// The phases partition the leader's work; unattributed time (request
	// decode, cache bookkeeping) makes sum < total, never the reverse.
	if sum > total+time.Millisecond {
		t.Errorf("phase sum %v exceeds total %v", sum, total)
	}

	// A hit — with or without debug=phases — has no trace to surface.
	req = httptest.NewRequest("POST", "/v1/advise?debug=phases", strings.NewReader(body))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request missed")
	}
	if h := w.Header().Get("X-Solve-Phases"); h != "" {
		t.Errorf("cache hit carries X-Solve-Phases %q", h)
	}

	// Without the query parameter a cold solve stays header-free.
	body2 := `{"scenario":"mv1","budget":25,"queries":10,"frequency":31}`
	req = httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body2))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("distinct request did not miss")
	}
	if h := w.Header().Get("X-Solve-Phases"); h != "" {
		t.Errorf("undebugged solve carries X-Solve-Phases %q", h)
	}
}

// TestDebugPhasesOnCompareAndSweep: the breakdown works on every
// memoized endpoint, not just advise.
func TestDebugPhasesOnCompareAndSweep(t *testing.T) {
	s := New(Options{})
	for path, body := range map[string]string{
		"/v1/compare": `{"budget":25,"limit":"4h","queries":10,"frequency":30}`,
		"/v1/sweep":   sweepBody(`"fleet_sizes":[3,5]`),
	} {
		req := httptest.NewRequest("POST", path+"?debug=phases", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
		}
		header := w.Header().Get("X-Solve-Phases")
		if header == "" {
			t.Errorf("%s: no X-Solve-Phases on cold solve", path)
			continue
		}
		phases := parsePhases(t, header)
		if phases["total"] <= 0 || phases["solve"] <= 0 {
			t.Errorf("%s: incomplete phases %q", path, header)
		}
	}
}

// TestSlowSolveLog: a cold solve past the threshold writes one
// structured JSON line with the phase breakdown; under a high threshold
// nothing is written.
func TestSlowSolveLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{SlowSolveThreshold: time.Nanosecond})
	s.slowLog = &buf
	body := `{"scenario":"mv1","budget":25,"queries":10,"frequency":30}`
	req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one log line, got %q", line)
	}
	var rec struct {
		Msg      string             `json:"msg"`
		Endpoint string             `json:"endpoint"`
		Label    string             `json:"label"`
		Duration float64            `json:"duration_seconds"`
		Phases   map[string]float64 `json:"phases"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow log is not valid JSON: %v\n%s", err, line)
	}
	if rec.Msg != "slow_solve" || rec.Endpoint != "advise" {
		t.Errorf("record = %+v", rec)
	}
	if rec.Duration <= 0 || rec.Phases["total"] <= 0 || rec.Phases["solve"] <= 0 {
		t.Errorf("missing durations in %+v", rec)
	}

	// A hit never logs: the threshold only sees cold solves.
	buf.Reset()
	req = httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body))
	s.ServeHTTP(httptest.NewRecorder(), req)
	if buf.Len() != 0 {
		t.Errorf("cache hit wrote a slow log: %q", buf.String())
	}

	// Threshold far above any solve: silent.
	var quiet bytes.Buffer
	s2 := New(Options{SlowSolveThreshold: time.Hour})
	s2.slowLog = &quiet
	req = httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body))
	s2.ServeHTTP(httptest.NewRecorder(), req)
	if quiet.Len() != 0 {
		t.Errorf("sub-threshold solve logged: %q", quiet.String())
	}
}

// TestVersionEndpoint: GET /v1/version reports the build stamp.
func TestVersionEndpoint(t *testing.T) {
	s := New(Options{})
	req := httptest.NewRequest("GET", "/v1/version", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var v VersionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", v.GoVersion, runtime.Version())
	}
	if v.Module != "vmcloud" {
		t.Errorf("module = %q, want vmcloud", v.Module)
	}
	// The endpoint is counted like any other route.
	samples := scrape(t, s)
	if got, _ := findSample(samples, "mvcloud_stats_requests_total",
		map[string]string{"endpoint": "version"}); got != 1 {
		t.Errorf("stats requests{version} = %g, want 1", got)
	}
}

// TestSolverCountersAdvance: a cold solve moves the process-wide solver
// counters (kernel builds, search evaluations ride along on sweep
// scenarios; the plain knapsack path at least builds one kernel).
func TestSolverCountersAdvance(t *testing.T) {
	before := func() (int64, int64) {
		return obs.KernelBuilds.Value(), obs.SearchEvals.Value()
	}
	b0, e0 := before()
	s := New(Options{})
	body := adviseBody("mv1", `"budget":25,"solver":"search","seed":42`)
	req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	b1, e1 := before()
	if b1 <= b0 {
		t.Errorf("kernel builds did not advance: %d -> %d", b0, b1)
	}
	if e1 <= e0 {
		t.Errorf("search evals did not advance: %d -> %d", e0, e1)
	}
}
