package server

import (
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// drainSolves polls until no solve is live, failing the test
// if any survives the deadline — the leaked-solve detector.
func drainSolves(t *testing.T, s *Server, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for s.InflightSolves() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.InflightSolves(); n != 0 {
		t.Fatalf("%d solves still live after %v", n, within)
	}
}

// TestShedRetryAfter drives the admission-control contract
// deterministically: with the heavy class's one worker occupied (a
// phantom backlog entry — no timing involved) and no queue, a sweep
// leader must be shed with 429 + a sane Retry-After, the cheap class
// must be unaffected, and the counters must surface the shed on
// /v1/stats and /metrics. Releasing the backlog restores service.
func TestShedRetryAfter(t *testing.T) {
	s := New(Options{HeavyWorkers: 1, HeavyQueue: -1})
	s.admHeavy.backlog.Add(1) // stand-in for an in-flight heavy solve

	w := do(t, s, "POST", "/v1/sweep", sweepBody(`"fleet_sizes":[3,5]`))
	if w.Code != 429 {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body.String())
	}
	ra := w.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1,60]", ra)
	}
	if !strings.Contains(w.Body.String(), "overloaded") {
		t.Errorf("shed body: %s", w.Body.String())
	}

	// The cheap class has its own pool: advise is untouched by the
	// heavy-class overload.
	if w := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`)); w.Code != 200 {
		t.Fatalf("advise during heavy overload: status %d: %s", w.Code, w.Body.String())
	}

	if got := statsOf(t, s).Advise.Shed; got != 1 {
		t.Errorf("/v1/stats shed = %d, want 1", got)
	}
	samples := scrape(t, s)
	if v, _ := findSample(samples, "mvcloud_http_requests_total",
		map[string]string{"endpoint": "sweep", "outcome": "shed"}); v != 1 {
		t.Errorf("requests_total{sweep,shed} = %g, want 1", v)
	}

	// Backlog drains → the same request is admitted and served.
	s.admHeavy.backlog.Add(-1)
	if w := do(t, s, "POST", "/v1/sweep", sweepBody(`"fleet_sizes":[3,5]`)); w.Code != 200 {
		t.Fatalf("post-drain sweep: status %d: %s", w.Code, w.Body.String())
	}
	drainSolves(t, s, 5*time.Second)
}

// TestResidentAnswerUnderShed pins the one-cache degradation ladder: with
// the cheap class saturated, an advise answer the cache holds is served
// as a hit, byte-identical, because a hit never asks admission; the
// answer the cache evicted to make room is a solve like any cold one, so
// it is shed with 429 + Retry-After. No outcome="stale" series exists.
func TestResidentAnswerUnderShed(t *testing.T) {
	s := New(Options{CacheSize: 1, AdviseWorkers: 1, AdviseQueue: -1})

	bodyA, bodyB := adviseBody("mv1", `"budget":25`), adviseBody("mv1", `"budget":40`)
	if w := do(t, s, "POST", "/v1/advise", bodyA); w.Code != 200 {
		t.Fatalf("prime A: status %d: %s", w.Code, w.Body.String())
	}
	// B evicts A from the 1-entry cache.
	wB := do(t, s, "POST", "/v1/advise", bodyB)
	if wB.Code != 200 {
		t.Fatalf("prime B: status %d: %s", wB.Code, wB.Body.String())
	}
	drainSolves(t, s, 5*time.Second)

	s.admCheap.backlog.Add(1) // cheap class saturated from here on

	w := do(t, s, "POST", "/v1/advise", bodyB)
	if w.Code != 200 || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("resident answer under shed: status %d, X-Cache %q, want a 200 hit", w.Code, w.Header().Get("X-Cache"))
	}
	if w.Body.String() != wB.Body.String() {
		t.Error("the hit is not byte-identical to the solve")
	}
	w = do(t, s, "POST", "/v1/advise", bodyA)
	if w.Code != 429 {
		t.Fatalf("evicted answer under shed: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	if a := statsOf(t, s).Advise; a.CacheHits != 1 || a.Shed != 1 || a.Solves != 2 {
		t.Errorf("/v1/stats hits %d, shed %d, solves %d; want 1, 1, 2", a.CacheHits, a.Shed, a.Solves)
	}

	samples := scrape(t, s)
	if v, _ := findSample(samples, "mvcloud_http_requests_total",
		map[string]string{"endpoint": "advise", "outcome": "shed"}); v != 1 {
		t.Errorf("requests_total{advise,shed} = %g, want 1", v)
	}
	if _, ok := findSample(samples, "mvcloud_http_requests_total",
		map[string]string{"endpoint": "advise", "outcome": "stale"}); ok {
		t.Error("/metrics still carries an outcome=\"stale\" series")
	}
	s.admCheap.backlog.Add(-1)
	drainSolves(t, s, 5*time.Second)
}

// TestPanicContainment injects a solver panic on every solve (chaos
// PanicProb 1) and checks containment end to end: the request gets a
// 500, the panic is counted, and the daemon keeps serving — including
// further panicking solves — without dying.
func TestPanicContainment(t *testing.T) {
	s := withChaos(New(Options{}), ChaosConfig{Seed: 1, PanicProb: 1})

	w := do(t, s, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	if w.Code != 500 {
		t.Fatalf("status = %d, want 500; body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "solve panic") {
		t.Errorf("panic body: %s", w.Body.String())
	}
	// The daemon survived: liveness and a second (also panicking) solve.
	if w := do(t, s, "GET", "/healthz", ""); w.Code != 200 {
		t.Fatalf("healthz after panic: status %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/compare", sweepBody(`"fleet_sizes":[3]`)); w.Code != 500 {
		t.Errorf("second panicking solve: status %d, want 500", w.Code)
	}
	if st := statsOf(t, s).Advise; st.Panics != 2 || st.Errors != 2 {
		t.Errorf("/v1/stats panics = %d, errors = %d, want 2 and 2 (a contained panic is also an error)", st.Panics, st.Errors)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("panicked solve cached %d entries", n)
	}
	samples := scrape(t, s)
	for _, ep := range []string{"advise", "compare"} {
		if v, _ := findSample(samples, "mvcloud_http_requests_total",
			map[string]string{"endpoint": ep, "outcome": "panic"}); v != 1 {
			t.Errorf("requests_total{%s,panic} = %g, want 1", ep, v)
		}
	}
	drainSolves(t, s, 5*time.Second)
}

// TestDegradedAdvise puts a search solve under deadline pressure
// (chaos latency longer than RequestTimeout) and checks the graceful
// half of the ladder: 200 with the best incumbent, X-Degraded: true,
// "degraded":true on the wire, counted — and never cached, because a
// degraded body is timing-dependent.
func TestDegradedAdvise(t *testing.T) {
	s := withChaos(New(Options{
		RequestTimeout: 100 * time.Millisecond,
		// A wide worker pool keeps the admission wait estimate (mean solve
		// latency ≈ the deadline here, by construction) from shedding what
		// this test wants degraded.
		AdviseWorkers: 32,
	}), ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 10 * time.Second})
	s.degradeGrace = 5 * time.Second
	body := adviseBody("mv1", `"budget":25,"solver":"search"`)

	for round := 1; round <= 2; round++ {
		drainSolves(t, s, 5*time.Second)
		start := time.Now()
		w := do(t, s, "POST", "/v1/advise", body)
		elapsed := time.Since(start)
		if w.Code != 200 {
			t.Fatalf("round %d: status %d: %s", round, w.Code, w.Body.String())
		}
		// The chaos sleep respects the solve deadline: the response lands
		// at ~RequestTimeout, nowhere near the 10s injected latency.
		if elapsed > 3*time.Second {
			t.Errorf("round %d: degraded response took %v", round, elapsed)
		}
		if got := w.Header().Get("X-Degraded"); got != "true" {
			t.Errorf("round %d: X-Degraded = %q, want \"true\"", round, got)
		}
		// Round 2 being a miss proves round 1's degraded body was never
		// memoized.
		if got := w.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("round %d: X-Cache = %q, want \"miss\"", round, got)
		}
		if !strings.Contains(w.Body.String(), `"degraded":true`) {
			t.Errorf("round %d: wire body lacks degraded flag: %s", round, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), `"recommendation"`) {
			t.Errorf("round %d: degraded response has no recommendation", round)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("degraded responses were cached (%d entries)", n)
	}
	if st := statsOf(t, s).Advise; st.Degraded != 2 || st.CacheMisses != 2 {
		t.Errorf("/v1/stats degraded = %d, misses = %d, want 2 and 2 (a degraded answer is still a miss)", st.Degraded, st.CacheMisses)
	}
	samples := scrape(t, s)
	if v, _ := findSample(samples, "mvcloud_http_requests_total",
		map[string]string{"endpoint": "advise", "outcome": "degraded"}); v != 2 {
		t.Errorf("requests_total{advise,degraded} = %g, want 2", v)
	}
	drainSolves(t, s, 5*time.Second)
}

// TestNoDetachedSolvesAfterCancelledRequests is the leak regression
// test for the old detached-goroutine design: K requests whose clients
// are already gone must cancel their solves, leave no live solve
// goroutines, no in-flight keys, and — crucially — no cache entries
// (the old design's orphaned solves kept running and warmed the cache
// with results nobody asked to wait for).
func TestNoDetachedSolvesAfterCancelledRequests(t *testing.T) {
	s := withChaos(New(Options{RequestTimeout: 30 * time.Second}),
		ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the handler even ran

	const K = 8
	for i := 0; i < K; i++ {
		body := adviseBody("mv1", `"budget":`+strconv.Itoa(20+i))
		req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 503 {
			t.Fatalf("request %d: status %d, want 503 (cancelled)", i, w.Code)
		}
	}
	// Every abandoned solve must unwind long before its 10s injected
	// latency: cancellation, not completion, is what ends it.
	drainSolves(t, s, 3*time.Second)
	if n := s.flight.len(); n != 0 {
		t.Errorf("%d flight keys still registered", n)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cancelled solves warmed the cache with %d entries", n)
	}
}
