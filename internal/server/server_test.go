package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

const testRows = 10_000_000 // keep lattice math fast

func testServer() *Server {
	return New(Options{})
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func adviseBody(scenario string, extra string) string {
	b := fmt.Sprintf(`{"scenario":%q,"fact_rows":%d,"queries":5`, scenario, testRows)
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

func TestEndpoints(t *testing.T) {
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		// wantBody substrings that must appear in the response.
		wantBody []string
	}{
		{"healthz", "GET", "/healthz", "", 200, []string{`"status":"ok"`}},
		{"healthz wrong method", "POST", "/healthz", "", 405, nil},
		{"stats", "GET", "/v1/stats", "", 200, []string{`"uptime_seconds"`, `"cache"`}},
		{"tariffs", "GET", "/v1/tariffs", "", 200,
			[]string{`"aws-2012"`, `"stratus"`, `"nimbus"`, `"headers"`, `"$0.12"`}},
		{"tariffs wrong method", "POST", "/v1/tariffs", "{}", 405, nil},
		{"advise wrong method", "GET", "/v1/advise", "", 405, nil},
		{"unknown path", "GET", "/v2/advise", "", 404, nil},

		{"mv1", "POST", "/v1/advise", adviseBody("mv1", `"budget":25`), 200,
			[]string{`"scenario":"mv1"`, `"recommendation"`, `"views":[`, `"feasible":true`, `"report"`}},
		{"mv1 string budget", "POST", "/v1/advise", adviseBody("mv1", `"budget":"$25.00"`), 200,
			[]string{`"scenario":"mv1"`}},
		{"mv2", "POST", "/v1/advise", adviseBody("mv2", `"limit":"4h"`), 200,
			[]string{`"scenario":"mv2"`, `"recommendation"`}},
		{"mv3", "POST", "/v1/advise", adviseBody("mv3", `"alpha":0.5`), 200,
			[]string{`"scenario":"mv3"`, `"recommendation"`}},
		{"mv3 default alpha", "POST", "/v1/advise", adviseBody("mv3", ""), 200,
			[]string{`"scenario":"mv3"`}},
		{"pareto", "POST", "/v1/advise", adviseBody("pareto", `"steps":5`), 200,
			[]string{`"scenario":"pareto"`, `"pareto":[`, `"alpha"`}},
		{"default scenario is mv1", "POST", "/v1/advise", adviseBody("", `"budget":25`), 200,
			[]string{`"scenario":"mv1"`}},
		{"explicit workload", "POST", "/v1/advise",
			fmt.Sprintf(`{"scenario":"mv1","budget":25,"fact_rows":%d,"workload":[{"levels":["year","country"],"frequency":30},{"levels":["month","region"]}]}`, testRows),
			200, []string{`"recommendation"`}},
		{"inline provider spec", "POST", "/v1/advise",
			fmt.Sprintf(`{"scenario":"mv1","budget":25,"fact_rows":%d,"queries":3,"provider_spec":{"name":"tiny-cloud","compute":{"granularity":"per-hour","instances":[{"name":"small","price_per_hour":"$0.10","ecu":1}]},"storage":{"mode":"slab","tiers":[{"price_per_gb":"$0.10"}]},"transfer":{"ingress_free":true,"egress":{"mode":"graduated","tiers":[{"price_per_gb":"$0.10"}]}}}}`, testRows),
			200, []string{`"recommendation"`}},

		{"bad json", "POST", "/v1/advise", `{"scenario":`, 400, []string{`"error"`}},
		{"unknown field", "POST", "/v1/advise", `{"scenario":"mv1","budget":25,"bogus":1}`, 400, []string{"bogus"}},
		{"unknown scenario", "POST", "/v1/advise", adviseBody("warp", ""), 400, []string{"unknown scenario"}},
		{"mv1 missing budget", "POST", "/v1/advise", adviseBody("mv1", ""), 400, []string{"budget required"}},
		{"mv1 negative budget", "POST", "/v1/advise", adviseBody("mv1", `"budget":-5`), 400, []string{"negative budget"}},
		{"mv2 missing limit", "POST", "/v1/advise", adviseBody("mv2", ""), 400, []string{"limit required"}},
		{"mv2 bad limit", "POST", "/v1/advise", adviseBody("mv2", `"limit":"soon"`), 400, []string{"limit"}},
		{"mv3 alpha out of range", "POST", "/v1/advise", adviseBody("mv3", `"alpha":1.5`), 400, []string{"alpha"}},
		{"pareto too many steps", "POST", "/v1/advise", adviseBody("pareto", `"steps":9999`), 400, []string{"steps"}},
		{"unknown provider", "POST", "/v1/advise", adviseBody("mv1", `"budget":25,"provider":"nonexistent"`), 400, []string{"unknown provider"}},
		{"oversized workload", "POST", "/v1/advise", adviseBody("mv1", `"budget":25,"queries":99`), 400, []string{"workload"}},
		{"absurd fact rows", "POST", "/v1/advise", `{"scenario":"mv1","budget":25,"fact_rows":999000000000000}`, 400, []string{"fact_rows"}},
		{"bad maintenance policy", "POST", "/v1/advise", adviseBody("mv1", `"budget":25,"maintenance_policy":"psychic"`), 400, []string{"maintenance policy"}},
		{"bad job overhead", "POST", "/v1/advise", adviseBody("mv1", `"budget":25,"job_overhead":"a while"`), 400, []string{"job_overhead"}},
		{"bad workload level", "POST", "/v1/advise", adviseBody("mv1", `"budget":25,"workload":[{"levels":["eon","country"]}]`), 400, []string{"eon"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testServer()
			w := do(t, s, c.method, c.path, c.body)
			if w.Code != c.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", w.Code, c.wantStatus, w.Body.String())
			}
			for _, sub := range c.wantBody {
				if !strings.Contains(w.Body.String(), sub) {
					t.Errorf("body missing %q:\n%s", sub, w.Body.String())
				}
			}
			if ct := w.Header().Get("Content-Type"); w.Code != 405 && w.Code != 404 && ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
		})
	}
}

// TestInlineTariffErrorIsStable: identical requests carrying an invalid
// inline tariff get identical 400 bodies, naming the first bad instance
// in name order.
func TestInlineTariffErrorIsStable(t *testing.T) {
	body := fmt.Sprintf(`{"scenario":"mv1","budget":25,"fact_rows":%d,"queries":3,"provider_spec":{"name":"x","compute":{"instances":[`+
		`{"name":"c","price_per_hour":"$1","ecu":0},{"name":"a","price_per_hour":"$1","ecu":0},{"name":"b","price_per_hour":"$1","ecu":0}]},`+
		`"storage":{"tiers":[{"price_per_gb":"$1"}]},"transfer":{"egress":{"tiers":[{"price_per_gb":"$1"}]}}}}`, testRows)
	var first string
	for i := 0; i < 20; i++ {
		w := do(t, testServer(), "POST", "/v1/advise", body)
		if w.Code != 400 || !strings.Contains(w.Body.String(), "instance a has non-positive ECU") {
			t.Fatalf("post %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		if i == 0 {
			first = w.Body.String()
		} else if w.Body.String() != first {
			t.Fatalf("post %d: body %s, first was %s", i, w.Body.String(), first)
		}
	}
}

// TestCacheHit checks that a repeated identical request — and an
// equivalent one spelled differently — is served from the cache.
func TestCacheHit(t *testing.T) {
	s := testServer()
	first := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	if first.Code != 200 || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	if second.Code != 200 || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second: status %d, X-Cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cached body differs from computed body")
	}
	// Same advisory problem, different spelling: string budget, explicit
	// defaults, reordered keys.
	spelled := do(t, s, "POST", "/v1/advise",
		fmt.Sprintf(`{"queries":5,"budget":"$25","scenario":"mv1","fact_rows":%d,"instances":5,"instance_type":"small","provider":"aws-2012"}`, testRows))
	if spelled.Header().Get("X-Cache") != "hit" {
		t.Errorf("canonicalized equivalent request missed the cache")
	}
	// A different budget must not hit.
	other := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":26`))
	if other.Header().Get("X-Cache") != "miss" {
		t.Error("different budget unexpectedly hit the cache")
	}
}

// TestResidentAnswersAreHits: an answer the daemon holds is served from
// memory, never solved again. At CacheSize N, N distinct problems are
// solved; each is then re-asked verbatim and re-spelled, and every reply
// is a hit with the solve count unchanged. One problem more evicts the
// SIEVE victim — the oldest answer, every bit having been cleared on the
// hand's first lap — and of the N re-asked again, exactly that one
// re-solves. On advise, compare, sweep and a tenant's advise route.
func TestResidentAnswersAreHits(t *testing.T) {
	const n = 6
	respelled := func(body string) string { return body[:len(body)-1] + " }" }
	for _, c := range []struct{ endpoint, path string }{
		{"advise", "/v1/advise"},
		{"compare", "/v1/compare"},
		{"sweep", "/v1/sweep"},
		{"tenant", "/v1/t/acme/advise"},
	} {
		t.Run(c.endpoint, func(t *testing.T) {
			s := New(Options{CacheSize: n})
			ep := c.endpoint
			if ep == "tenant" {
				ep = "advise"
			}
			ask := func(i int, body, want string) {
				t.Helper()
				w := do(t, s, "POST", c.path, body)
				if w.Code != 200 || w.Header().Get("X-Cache") != want {
					t.Fatalf("problem %d: status %d, X-Cache %q, want a 200 %s: %s", i, w.Code, w.Header().Get("X-Cache"), want, w.Body.String())
				}
			}
			for i := range n {
				ask(i, problem(ep, i, ""), "miss")
			}
			solves := s.m.solves.Value()
			for i := range n {
				ask(i, problem(ep, i, ""), "hit")
				ask(i, respelled(problem(ep, i, "")), "hit")
			}
			if got := s.m.solves.Value(); got != solves {
				t.Fatalf("%d solves while every answer was resident", got-solves)
			}
			ask(n, problem(ep, n, ""), "miss")
			for i := 1; i < n; i++ {
				ask(i, problem(ep, i, ""), "hit")
			}
			ask(0, problem(ep, 0, ""), "miss")
			if got := s.m.solves.Value(); got != solves+2 {
				t.Errorf("%d solves after one new problem and its victim, want 2", got-solves)
			}
		})
	}
}

// TestEvictedResponseRecovery exercises the corner where a raw body still
// maps to its canonical key but the response itself was evicted: the
// body takes the one miss path — canonicalized like any new body — and
// is re-solved to the same bytes, on every memoized endpoint, on a
// tenant route, and on a cluster frontend (whose workers still hold the
// answer). Remembering the body again refreshes its raw-key entry in
// place.
func TestEvictedResponseRecovery(t *testing.T) {
	for _, c := range []struct {
		name, path, body string
		cluster          bool
	}{
		{"mv1", "/v1/advise", adviseBody("mv1", `"budget":25`), false},
		{"mv2", "/v1/advise", adviseBody("mv2", `"limit":"4h"`), false},
		{"pareto", "/v1/advise", adviseBody("pareto", `"steps":5`), false},
		{"compare", "/v1/compare", compareBody(`"providers":["aws-2012","cumulus"],"fleet_sizes":[3]`), false},
		{"sweep", "/v1/sweep", sweepBody(`"fleet_sizes":[3,5]`), false},
		{"tenant", "/v1/t/acme/advise", adviseBody("mv1", `"budget":25`), false},
		{"cluster", "/v1/advise", adviseBody("mv1", `"budget":25`), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := testServer()
			if c.cluster {
				s = testCluster(t, LocalClusterOptions{Workers: 2}).Frontend
			}
			first := do(t, s, "POST", c.path, c.body)
			if first.Code != 200 {
				t.Fatalf("prime: %d %s", first.Code, first.Body.String())
			}
			raw := s.rawKeys.Len()
			s.cache = newSieveCache(s.opts.CacheSize, s.opts.CacheMaxBytes) // evict every response, keep rawKeys
			again := do(t, s, "POST", c.path, c.body)
			if again.Code != 200 || again.Header().Get("X-Cache") != "miss" {
				t.Fatalf("recovery: status %d, X-Cache %q: %s",
					again.Code, again.Header().Get("X-Cache"), again.Body.String())
			}
			if first.Body.String() != again.Body.String() {
				t.Error("re-solved response differs from original")
			}
			if n := s.rawKeys.Len(); n != raw {
				t.Errorf("raw-key cache holds %d entries after the re-miss, want %d", n, raw)
			}
		})
	}
}

// TestConcurrentAdvise hammers the server with parallel clients mixing
// scenarios and checks every response is correct and internally
// consistent.
func TestConcurrentAdvise(t *testing.T) {
	s := testServer()
	bodies := []string{
		adviseBody("mv1", `"budget":25`),
		adviseBody("mv2", `"limit":"4h"`),
		adviseBody("mv3", `"alpha":0.25`),
		adviseBody("pareto", `"steps":5`),
	}
	want := make([]string, len(bodies))
	for i, b := range bodies {
		w := do(t, s, "POST", "/v1/advise", b)
		if w.Code != 200 {
			t.Fatalf("prime %d: status %d: %s", i, w.Code, w.Body.String())
		}
		want[i] = w.Body.String()
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(bodies))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, b := range bodies {
				w := do(t, s, "POST", "/v1/advise", b)
				if w.Code != 200 {
					errs <- fmt.Errorf("client %d body %d: status %d", c, i, w.Code)
					return
				}
				if w.Body.String() != want[i] {
					errs <- fmt.Errorf("client %d body %d: response differs", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentColdMisses has parallel clients racing on distinct
// uncached configs — exercising the compute-then-insert path under
// contention and cache eviction (cache smaller than the config count).
func TestConcurrentColdMisses(t *testing.T) {
	s := New(Options{CacheSize: 4})
	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := adviseBody("mv1", fmt.Sprintf(`"budget":25,"frequency":%d`, c+1))
			w := do(t, s, "POST", "/v1/advise", body)
			if w.Code != 200 {
				errs <- fmt.Errorf("client %d: status %d: %s", c, w.Code, w.Body.String())
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := s.cache.Len(); n > 4 {
		t.Errorf("cache grew to %d entries, cap 4", n)
	}
}

func TestStatsCounts(t *testing.T) {
	s := testServer()
	do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	do(t, s, "POST", "/v1/advise", adviseBody("mv1", "")) // 400
	w := do(t, s, "GET", "/v1/stats", "")
	var got statsJSON
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Advise.CacheMisses != 1 || got.Advise.CacheHits != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", got.Advise.CacheHits, got.Advise.CacheMisses)
	}
	if got.Advise.Errors != 1 {
		t.Errorf("errors = %d, want 1", got.Advise.Errors)
	}
	if got.Advise.ByScenario["mv1"] != 2 {
		t.Errorf("mv1 count = %d, want 2", got.Advise.ByScenario["mv1"])
	}
	if got.ByEndpoint["advise"] != 3 || got.ByEndpoint["stats"] != 1 {
		t.Errorf("endpoint counts = %v", got.ByEndpoint)
	}
	if got.Cache.Entries != 1 || got.Cache.Capacity != 512 {
		t.Errorf("cache = %+v", got.Cache)
	}
}

// TestDefaultCacheBounds pins what a default server may keep: two
// caches — the answers and the remembered spellings — of 512 entries and
// 64 MB each, 2 × 64 MB in all.
func TestDefaultCacheBounds(t *testing.T) {
	cs := caches(New(Options{}))
	if len(cs) != 2 {
		t.Fatalf("a server holds %d caches, want 2", len(cs))
	}
	for _, c := range cs {
		if c.Cap() != 512 || c.capBytes != 64<<20 {
			t.Errorf("a cache bounded at %d entries and %d bytes, want 512 and 64 MB", c.Cap(), c.capBytes)
		}
	}
}

// TestAdviseTimeout forces an immediate solve deadline and checks the
// new contract: the request fails fast with 503, and — unlike the old
// detached-goroutine design — no orphaned solve lingers to warm the
// cache with a result nobody waited for.
func TestAdviseTimeout(t *testing.T) {
	s := New(Options{RequestTimeout: time.Nanosecond})
	w := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.InflightSolves() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.InflightSolves(); n != 0 {
		t.Fatalf("%d solves still in flight after drain", n)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache has %d entries; a timed-out solve must not warm it", n)
	}
	if n := s.flight.len(); n != 0 {
		t.Errorf("%d flight keys still registered after drain", n)
	}
}

// TestRecommendationShape decodes a full response and sanity-checks the
// wire structure end to end.
func TestRecommendationShape(t *testing.T) {
	s := testServer()
	w := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25,"frequency":30`))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Scenario       string `json:"scenario"`
		DatasetSize    string `json:"dataset_size"`
		Candidates     int    `json:"candidates"`
		Recommendation struct {
			Feasible bool     `json:"feasible"`
			Views    []string `json:"views"`
			Points   [][]int  `json:"points"`
			Time     string   `json:"time"`
			Bill     struct {
				Total string `json:"total"`
			} `json:"bill"`
			Baseline struct {
				Hours float64 `json:"time_hours"`
			} `json:"baseline"`
			Report string `json:"report"`
		} `json:"recommendation"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Candidates == 0 || resp.DatasetSize == "" {
		t.Errorf("missing context fields: %+v", resp)
	}
	if len(resp.Recommendation.Views) != len(resp.Recommendation.Points) {
		t.Errorf("views/points mismatch: %v vs %v", resp.Recommendation.Views, resp.Recommendation.Points)
	}
	if !strings.HasPrefix(resp.Recommendation.Bill.Total, "$") {
		t.Errorf("bill total %q not a dollar string", resp.Recommendation.Bill.Total)
	}
	if _, err := time.ParseDuration(resp.Recommendation.Time); err != nil {
		t.Errorf("time %q not a duration: %v", resp.Recommendation.Time, err)
	}
	if !strings.Contains(resp.Recommendation.Report, "Scenario MV1") {
		t.Errorf("report missing scenario header:\n%s", resp.Recommendation.Report)
	}
}
