package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// statsOf fetches and decodes GET /v1/stats.
func statsOf(t *testing.T, s *Server) statsJSON {
	t.Helper()
	var snap statsJSON
	if err := json.Unmarshal(do(t, s, "GET", "/v1/stats", "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// problem is the n-th distinct cheap problem for an endpoint; extra is
// spliced into the body.
func problem(endpoint string, n int, extra string) string {
	extra = fmt.Sprintf(`"frequency":%d`, 30+n) + extra
	switch endpoint {
	case "advise":
		return adviseBody("mv1", `"budget":25,`+extra)
	case "compare":
		return compareBody(`"providers":["aws-2012"],"fleet_sizes":[3],` + extra)
	default:
		return sweepBody(`"fleet_sizes":[3],` + extra)
	}
}

// post sends the n-th problem to every memoized endpoint and holds each
// response to the wanted status and X-Cache.
func post(t *testing.T, s *Server, n int, extra string, status int, xcache string) {
	t.Helper()
	for _, e := range s.endpoints {
		w := do(t, s, "POST", "/v1/"+e.name, problem(e.name, n, extra))
		if w.Code != status || w.Header().Get("X-Cache") != xcache {
			t.Fatalf("%s problem %d: status %d, X-Cache %q, want %d, %q: %s",
				e.name, n, w.Code, w.Header().Get("X-Cache"), status, xcache, w.Body.String())
		}
	}
}

// waiters is the number of requests blocked on an in-flight solve.
func waiters(s *Server) int {
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	n := 0
	for _, c := range s.flight.calls {
		n += c.waiters
	}
	return n
}

// coalescePair sends one problem twice so that the second request joins
// the first's solve, with no timing involved: the class's worker slots
// are held until both requests are waiting on the one flight.
func coalescePair(t *testing.T, s *Server, e *endpoint, body string) {
	t.Helper()
	for i := 0; i < cap(e.adm.sem); i++ {
		e.adm.sem <- struct{}{}
	}
	var wg sync.WaitGroup
	for n := 1; n <= 2; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := do(t, s, "POST", "/v1/"+e.name, body); w.Code != 200 {
				t.Errorf("%s coalesce pair: status %d: %s", e.name, w.Code, w.Body.String())
			}
		}()
		for deadline := time.Now().Add(10 * time.Second); waiters(s) < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s coalesce pair: request %d never reached the flight group", e.name, n)
			}
		}
	}
	for i := 0; i < cap(e.adm.sem); i++ {
		<-e.adm.sem
	}
	wg.Wait()
}

// TestStatsMatchesMetrics: /v1/stats and /metrics are two views of one
// store. Each row drives a server through some of the outcomes — the
// overload rows with overload_test.go's setups — on all three memoized
// endpoints, says what /v1/stats must then report, and every number in
// /v1/stats is held to the /metrics sample it is read from.
func TestStatsMatchesMetrics(t *testing.T) {
	const saturated = 1 << 20 // a phantom backlog no queue admits behind
	rows := []struct {
		name  string
		opts  Options
		drive func(t *testing.T, s *Server)
		want  adviseStatsJSON
	}{
		{
			name: "hit miss coalesced 400 tenant",
			drive: func(t *testing.T, s *Server) {
				post(t, s, 0, "", 200, "miss")
				post(t, s, 0, "", 200, "hit")
				post(t, s, 1, `,"nope":1`, 400, "")
				for _, e := range s.endpoints {
					coalescePair(t, s, e, problem(e.name, 2, ""))
				}
				doAccount(t, s, "POST", "/v1/advise", "acme", problem("advise", 0, ""))
				do(t, s, "POST", "/v1/t/globex/sweep", "{nope")
				do(t, s, "GET", "/healthz", "")
				do(t, s, "GET", "/v1/version", "")
				do(t, s, "GET", "/v1/tariffs", "")
			},
			want: adviseStatsJSON{CacheHits: 3, CacheMisses: 7, Coalesced: 3, Solves: 7, Errors: 4,
				ByScenario: map[string]int64{"mv1": 5, "compare": 4, "sweep": 4}},
		},
		{
			name: "shed",
			opts: Options{CacheSize: 1},
			drive: func(t *testing.T, s *Server) {
				// Each problem evicts the one solved before it; advise goes
				// last, so its problem 1 is the answer that stays.
				for i := len(s.endpoints) - 1; i >= 0; i-- {
					e := s.endpoints[i]
					do(t, s, "POST", "/v1/"+e.name, problem(e.name, 0, ""))
					do(t, s, "POST", "/v1/"+e.name, problem(e.name, 1, ""))
				}
				drainSolves(t, s, 5*time.Second)
				s.admCheap.backlog.Add(saturated)
				s.admHeavy.backlog.Add(saturated)
				// The resident answer is a hit however loaded the solvers
				// are; every evicted or cold one is shed.
				if w := do(t, s, "POST", "/v1/advise", problem("advise", 1, "")); w.Code != 200 || w.Header().Get("X-Cache") != "hit" {
					t.Fatalf("resident advise under shed: status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
				}
				post(t, s, 0, "", 429, "")
				post(t, s, 2, "", 429, "")
				s.admCheap.backlog.Add(-saturated)
				s.admHeavy.backlog.Add(-saturated)
			},
			want: adviseStatsJSON{CacheHits: 1, CacheMisses: 6, Solves: 6, Shed: 6,
				ByScenario: map[string]int64{"mv1": 3, "compare": 2, "sweep": 2}},
		},
		{
			name: "degraded",
			opts: Options{RequestTimeout: 100 * time.Millisecond, AdviseWorkers: 32, HeavyWorkers: 32},
			drive: func(t *testing.T, s *Server) {
				withChaos(s, ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 10 * time.Second})
				s.degradeGrace = 5 * time.Second
				// The injected latency uses up the whole deadline. An advise
				// search then answers with its incumbent; a compare or sweep
				// grid has no cell to show for it and fails with a 503.
				for _, e := range s.endpoints {
					status, degraded := 503, ""
					if e.name == "advise" {
						status, degraded = 200, "true"
					}
					w := do(t, s, "POST", "/v1/"+e.name, problem(e.name, 0, `,"solver":"search"`))
					if w.Code != status || w.Header().Get("X-Degraded") != degraded {
						t.Fatalf("%s: status %d, X-Degraded %q, want %d, %q: %s", e.name, w.Code, w.Header().Get("X-Degraded"), status, degraded, w.Body.String())
					}
				}
			},
			want: adviseStatsJSON{CacheMisses: 1, Solves: 3, Degraded: 1, Errors: 2,
				ByScenario: map[string]int64{"mv1": 1}},
		},
		{
			name: "panic",
			drive: func(t *testing.T, s *Server) {
				withChaos(s, ChaosConfig{Seed: 1, PanicProb: 1})
				post(t, s, 0, "", 500, "")
			},
			want: adviseStatsJSON{Solves: 3, Errors: 3, Panics: 3, ByScenario: map[string]int64{}},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s := New(row.opts)
			row.drive(t, s)
			drainSolves(t, s, 5*time.Second)
			checkStatsMatchMetrics(t, s, row.want)
		})
	}
	t.Run("cluster forward", func(t *testing.T) {
		lc := testCluster(t, LocalClusterOptions{Workers: 2})
		post(t, lc.Frontend, 0, "", 200, "miss")
		post(t, lc.Frontend, 0, "", 200, "hit")
		drainCluster(t, lc, 5*time.Second)
		checkStatsMatchMetrics(t, lc.Frontend, adviseStatsJSON{CacheHits: 3, CacheMisses: 3, Solves: 3,
			ByScenario: map[string]int64{"mv1": 2, "compare": 2, "sweep": 2}})
		if got := statsOf(t, lc.Frontend).Cluster.Forwards; got != 3 {
			t.Errorf("cluster.forwards = %d, want 3", got)
		}
	})
}

// checkStatsMatchMetrics holds s's /v1/stats to want and to its own
// /metrics, number by number.
func checkStatsMatchMetrics(t *testing.T, s *Server, want adviseStatsJSON) {
	t.Helper()
	samples := scrape(t, s)
	snap := statsOf(t, s)
	metric := func(name string, labels ...string) int64 {
		l := map[string]string{}
		for i := 0; i < len(labels); i += 2 {
			l[labels[i]] = labels[i+1]
		}
		v, ok := findSample(samples, name, l)
		if !ok {
			t.Errorf("no sample %s%v", name, l)
		}
		return int64(v)
	}
	same := func(what string, stats, metrics int64) {
		t.Helper()
		if stats != metrics {
			t.Errorf("%s: /v1/stats says %d, /metrics %d", what, stats, metrics)
		}
	}

	if got, wantJSON := fmt.Sprintf("%+v", snap.Advise), fmt.Sprintf("%+v", want); got != wantJSON {
		t.Errorf("/v1/stats advise section:\n got %s\nwant %s", got, wantJSON)
	}

	var sum int64
	for _, rc := range s.m.received {
		n := metric("mvcloud_stats_requests_total", "endpoint", rc.name)
		if rc.name == "stats" {
			n++ // the scrape came first, so it has not seen the stats request
		}
		same("by_endpoint."+rc.name, snap.ByEndpoint[rc.name], n)
		if _, present := snap.ByEndpoint[rc.name]; present != (n > 0) {
			t.Errorf("by_endpoint.%s present = %v with count %d", rc.name, present, n)
		}
		sum += snap.ByEndpoint[rc.name]
	}
	same("requests = Σ by_endpoint", snap.Requests, sum)

	var total [numOutcomes]int64
	for _, e := range s.endpoints {
		var n [numOutcomes]int64
		for o := range n {
			n[o] = metric("mvcloud_http_requests_total", "endpoint", e.name, "outcome", outcomeNames[o])
			total[o] += n[o]
		}
		c := snap.Caches[e.name]
		same("caches."+e.name+".hits", c.Hits, n[outcomeHit])
		same("caches."+e.name+".misses", c.Misses, n[outcomeSolve]+n[outcomeDegraded])
		same("caches."+e.name+".coalesced", c.Coalesced, n[outcomeCoalesced])
	}
	a := snap.Advise
	same("advise.cache_hits", a.CacheHits, total[outcomeHit])
	same("advise.cache_misses", a.CacheMisses, total[outcomeSolve]+total[outcomeDegraded])
	same("advise.coalesced", a.Coalesced, total[outcomeCoalesced])
	same("advise.errors", a.Errors, total[outcomeError]+total[outcomePanic])
	same("advise.shed", a.Shed, total[outcomeShed])
	same("advise.degraded", a.Degraded, total[outcomeDegraded])
	same("advise.panics", a.Panics, total[outcomePanic])
	same("advise.solves", a.Solves, metric("mvcloud_stats_solves_total"))
	for _, l := range knownLabels {
		same("advise.by_scenario."+l, a.ByScenario[l], metric("mvcloud_stats_scenario_requests_total", "scenario", l))
	}

	for account, n := range snap.Tenants {
		same("tenants."+account, n, metric("mvcloud_tenant_requests_total", "account", account))
	}
	same("cache.entries", int64(snap.Cache.Entries), metric("mvcloud_cache_entries", "cache", "responses"))
	same("cache.bytes", snap.Cache.Bytes,
		metric("mvcloud_cache_bytes", "cache", "responses")+metric("mvcloud_cache_bytes", "cache", "rawkeys"))
	// Every resident byte is counted: the keys, bodies and canonical-key
	// references of every cache the server holds sum to cache.bytes.
	var resident int64
	for _, c := range caches(s) {
		c.mu.Lock()
		for e := c.root.newer; e != &c.root; e = e.newer {
			resident += int64(len(e.key) + len(e.val) + len(e.ref))
		}
		c.mu.Unlock()
	}
	if snap.Cache.Bytes != resident {
		t.Errorf("cache.bytes = %d, but the caches' keys and bodies sum to %d", snap.Cache.Bytes, resident)
	}
	if cl := snap.Cluster; cl != nil {
		same("cluster.forwards", cl.Forwards, metric("mvcloud_cluster_forwards_total"))
		same("cluster.failovers", cl.Failovers, metric("mvcloud_cluster_failovers_total"))
		same("cluster.all_down", cl.AllDown, metric("mvcloud_cluster_all_down_total"))
	}
}

// caches returns every cache s holds: each of its *sieveCache fields.
func caches(s *Server) []*sieveCache {
	var out []*sieveCache
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Type() == reflect.TypeFor[*sieveCache]() {
			out = append(out, (*sieveCache)(f.UnsafePointer()))
		}
	}
	return out
}

// hookWriter runs onWrite before the first byte of the body is written.
type hookWriter struct {
	*httptest.ResponseRecorder
	onWrite func()
}

func (h *hookWriter) Write(b []byte) (int, error) {
	h.onWrite()
	return h.ResponseRecorder.Write(b)
}

// TestCountedBeforeWritten pins the ordering /v1/stats now depends on: a
// request's outcome counter moves before its response is written (its
// latency is observed after), so a client that reads its answer and then
// asks /v1/stats — on any connection — finds itself counted.
func TestCountedBeforeWritten(t *testing.T) {
	s := testServer()
	body := adviseBody("mv1", `"budget":25`)
	for _, c := range []struct {
		name, body string
		status     int
		count      func(adviseStatsJSON) int64
	}{
		{"miss", body, 200, func(a adviseStatsJSON) int64 { return a.CacheMisses }},
		{"hit", body, 200, func(a adviseStatsJSON) int64 { return a.CacheHits }},
		{"error", "{nope", 400, func(a adviseStatsJSON) int64 { return a.Errors }},
	} {
		var seen int64 = -1
		w := &hookWriter{httptest.NewRecorder(), func() { seen = c.count(s.statsSnapshot(time.Now()).Advise) }}
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/advise", strings.NewReader(c.body)))
		if w.Code != c.status {
			t.Fatalf("%s: status %d: %s", c.name, w.Code, w.Body.String())
		}
		if seen != 1 {
			t.Errorf("%s: /v1/stats read %d as the response was being written, want 1 (this request)", c.name, seen)
		}
	}
	var lat int64
	e := s.endpoint("advise")
	for o := range e.latency {
		lat += e.latency[o].Count()
	}
	if lat != 3 {
		t.Errorf("%d latency observations after 3 requests", lat)
	}
}
