package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestFlightGroupCoalesces pins the group's contract directly: joiners
// during an in-flight call share one outcome, and a finished key is
// retired so the next join leads a fresh call.
func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	c1, leader := g.join("k")
	if !leader {
		t.Fatal("first join is not the leader")
	}
	c2, leader2 := g.join("k")
	if leader2 {
		t.Fatal("second join elected a second leader")
	}
	if c1 != c2 {
		t.Fatal("joiners got distinct calls")
	}
	other, leaderOther := g.join("other")
	if !leaderOther || other == c1 {
		t.Fatal("distinct keys must not share a call")
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-c1.done
			results[i] = c1.out.body
		}(i)
	}
	g.finish("k", c1, outcome{body: []byte("solved")})
	wg.Wait()
	for i, r := range results {
		if string(r) != "solved" {
			t.Errorf("waiter %d read %q", i, r)
		}
	}

	// The key is retired: the next join must lead again.
	if _, leader := g.join("k"); !leader {
		t.Error("finished key still has an in-flight call")
	}
}

// TestLeaderReprobesCacheAfterJoin pins the probe→join window
// deterministically: request A misses the cache, and before it joins the
// flight group an identical request B runs start to finish (solve, cache
// fill, key retired). A then finds no flight and becomes leader — it
// must notice the now-resident response instead of solving again.
func TestLeaderReprobesCacheAfterJoin(t *testing.T) {
	s := testServer()
	body := adviseBody("mv1", `"budget":25`)

	var inner *httptest.ResponseRecorder
	s.beforeJoin = func() {
		s.beforeJoin = nil // B itself, and anything later, joins unhooked
		inner = do(t, s, "POST", "/v1/advise", body)
	}
	outer := do(t, s, "POST", "/v1/advise", body)

	if inner == nil || inner.Code != 200 || inner.Header().Get("X-Cache") != "miss" {
		t.Fatalf("request inside the window: %+v", inner)
	}
	if outer.Code != 200 || outer.Header().Get("X-Cache") != "hit" {
		t.Errorf("request that probed before the fill: status %d X-Cache %q, want 200 hit",
			outer.Code, outer.Header().Get("X-Cache"))
	}
	if !bytes.Equal(outer.Body.Bytes(), inner.Body.Bytes()) {
		t.Error("the two responses differ")
	}
	if got := s.m.solves.Value(); got != 1 {
		t.Errorf("%d solves, want 1", got)
	}
	if n := s.flight.len(); n != 0 {
		t.Errorf("%d flight keys still registered", n)
	}
	drainSolves(t, s, time.Second)
}

// TestSolvePastDeadlineIsCached is the other side of "abandoned solves
// are not memoized": a solve that outlives its deadline but still has
// its waiter (requests stay for degradeGrace) delivers a normal 200, and
// that body must be cached — otherwise every retry of a slow key solves
// again. Injected latency holds the solve until the deadline fires; the
// knapsack path then runs to completion regardless.
func TestSolvePastDeadlineIsCached(t *testing.T) {
	s := withChaos(New(Options{RequestTimeout: 20 * time.Millisecond}),
		ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 10 * time.Second})
	s.degradeGrace = 30 * time.Second
	body := adviseBody("mv1", `"budget":25`)

	w := do(t, s, "POST", "/v1/advise", body)
	if w.Code != 200 || w.Header().Get("X-Cache") != "miss" || w.Header().Get("X-Degraded") != "" {
		t.Fatalf("late solve: status %d X-Cache %q X-Degraded %q: %s",
			w.Code, w.Header().Get("X-Cache"), w.Header().Get("X-Degraded"), w.Body.String())
	}
	again := do(t, s, "POST", "/v1/advise", body)
	if again.Code != 200 || again.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat after a late solve: status %d X-Cache %q, want 200 hit",
			again.Code, again.Header().Get("X-Cache"))
	}
	if got := s.m.solves.Value(); got != 1 {
		t.Errorf("%d solves, want 1", got)
	}
}

// TestSingleflightStampede is the regression test for stampede
// suppression: K identical cold /v1/advise requests fired concurrently
// must execute exactly one underlying solve, and every response must be
// byte-identical to the pinned golden. Before singleflight, each of the
// K requests ran its own lattice build + knapsack; the stats solve
// counter would read K.
func TestSingleflightStampede(t *testing.T) {
	const K = 32
	s := testServer()
	body := adviseBody("mv1", `"budget":25`) // matches testdata/mv1_knapsack.golden

	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		bodies  = make(map[string]int) // response body → count
		xcaches = make(map[string]int) // X-Cache value → count
	)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := do(t, s, "POST", "/v1/advise", body)
			mu.Lock()
			defer mu.Unlock()
			if w.Code != 200 {
				bodies[fmt.Sprintf("status %d: %s", w.Code, w.Body.String())]++
				return
			}
			bodies[w.Body.String()]++
			xcaches[w.Header().Get("X-Cache")]++
		}()
	}
	close(start)
	wg.Wait()

	if got := s.m.solves.Value(); got != 1 {
		t.Errorf("stampede of %d identical requests executed %d solves, want exactly 1", K, got)
	}
	if len(bodies) != 1 {
		t.Fatalf("stampede produced %d distinct responses, want 1: %v", len(bodies), keysOf(bodies))
	}
	for resp, n := range bodies {
		if n != K {
			t.Errorf("response seen %d times, want %d", n, K)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "mv1_knapsack.golden"))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		if resp != string(golden) {
			t.Errorf("stampede response drifted from golden:\ngot:  %s\nwant: %s", resp, golden)
		}
	}
	// Depending on scheduling each request hit, coalesced or led the one
	// miss — but a second solve is impossible, so "miss" appears at most
	// once.
	if xcaches["miss"] > 1 {
		t.Errorf("X-Cache reported %d misses, want at most 1 (got %v)", xcaches["miss"], xcaches)
	}
	if total := xcaches["miss"] + xcaches["hit"] + xcaches["coalesced"]; total != K {
		t.Errorf("X-Cache outcomes sum to %d, want %d: %v", total, K, xcaches)
	}

	// /v1/stats reports the same story.
	var snap statsJSON
	if err := json.Unmarshal(do(t, s, "GET", "/v1/stats", "").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Advise.Solves != 1 {
		t.Errorf("stats solves = %d, want 1", snap.Advise.Solves)
	}
	if got := snap.Advise.CacheHits + snap.Advise.CacheMisses + snap.Advise.Coalesced; got != K {
		t.Errorf("stats outcomes sum to %d, want %d (%+v)", got, K, snap.Advise)
	}
}

// TestSingleflightErrorNotCached checks that a failed solve is not
// published to the cache and does not wedge the key: the next request
// retries the solve.
func TestSingleflightErrorNotCached(t *testing.T) {
	s := testServer()
	bad := adviseBody("mv1", `"budget":25,"candidate_budget":99`) // rejected by normalize
	if w := do(t, s, "POST", "/v1/advise", bad); w.Code != 400 {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/v1/advise", bad); w.Code != 400 {
		t.Fatalf("repeat status %d, want 400", w.Code)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("failed request cached %d entries", n)
	}
}

// TestFlightAbandonedLeaderCancels pins the new waiter-refcount
// contract: when every waiter leaves an in-flight call, the solve's
// context is cancelled and the key retired immediately — the next
// arrival leads a fresh solve instead of wedging on the abandoned one.
func TestFlightAbandonedLeaderCancels(t *testing.T) {
	g := newFlightGroup()
	c, leader := g.join("k")
	if !leader {
		t.Fatal("first join is not the leader")
	}
	cancelled := false
	g.setCancel(c, func() { cancelled = true })
	if cancelled {
		t.Fatal("cancel fired while a waiter was still present")
	}

	g.leave("k", c)
	if !cancelled {
		t.Error("last waiter left but the solve was not cancelled")
	}
	if n := g.len(); n != 0 {
		t.Errorf("abandoned key still registered (%d in flight)", n)
	}

	// The key is free: a fresh leader takes over while the old solve may
	// still be unwinding.
	c2, leader2 := g.join("k")
	if !leader2 {
		t.Fatal("abandoned key did not elect a fresh leader")
	}
	if c2 == c {
		t.Fatal("fresh join reused the abandoned call")
	}
	// The stale call's finish must not clobber the fresh one.
	g.finish("k", c, outcome{body: []byte("stale")})
	if got := g.len(); got != 1 {
		t.Errorf("stale finish retired the fresh call (%d in flight, want 1)", got)
	}
	g.finish("k", c2, outcome{body: []byte("fresh")})
	if got := g.len(); got != 0 {
		t.Errorf("%d calls in flight after finish, want 0", got)
	}
}

// TestFlightFollowerKeepsSolveAlive checks the other half of the
// refcount contract: the leader's request abandoning the call does NOT
// cancel the solve while a follower still waits, and the follower gets
// the result.
func TestFlightFollowerKeepsSolveAlive(t *testing.T) {
	g := newFlightGroup()
	c, _ := g.join("k")
	if _, leader := g.join("k"); leader {
		t.Fatal("second join elected a second leader")
	}
	cancelled := false
	g.setCancel(c, func() { cancelled = true })

	g.leave("k", c) // the leader's request gives up…
	if cancelled {
		t.Fatal("solve cancelled while a follower still waits")
	}
	g.finish("k", c, outcome{body: []byte("solved")})
	<-c.done
	if string(c.out.body) != "solved" {
		t.Errorf("follower read %q, want \"solved\"", c.out.body)
	}
	// finish releases the solve context once the outcome is published.
	if !cancelled {
		t.Error("finish did not release the solve context")
	}
}

// TestFlightSetCancelAfterAbandon covers the startup race: every waiter
// leaves before the leader goroutine even attaches its cancel func.
// setCancel must fire it on the spot.
func TestFlightSetCancelAfterAbandon(t *testing.T) {
	g := newFlightGroup()
	c, _ := g.join("k")
	g.leave("k", c)
	cancelled := false
	g.setCancel(c, func() { cancelled = true })
	if !cancelled {
		t.Error("setCancel on a fully-abandoned call did not cancel the solve")
	}
}

func keysOf(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		if len(k) > 120 {
			k = k[:120] + "..."
		}
		out = append(out, k)
	}
	return out
}

// TestFlightLeaderDeathOnKilledWorker is the cluster-mode singleflight
// death test: a worker killed mid-solve must (a) fail the in-flight
// forward immediately, (b) let the frontend re-elect onto the ring
// successor within the same request, (c) retire the flight key so
// later requests are not stuck joining a dead call, and (d) leave zero
// live solves anywhere in the topology — including on the killed
// worker, whose request context dies with it.
func TestFlightLeaderDeathOnKilledWorker(t *testing.T) {
	opts := LocalClusterOptions{Workers: 2, Worker: Options{AdviseWorkers: 32}, Seed: 21}
	body := adviseBody("mv1", `"budget":25`)
	owner := ownerOf(t, opts, "/v1/advise", body)

	// Slow, deterministic worker solves give the test a window to kill
	// the serving worker mid-solve.
	lc := withWorkerChaos(testCluster(t, opts), ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 400 * time.Millisecond})
	lc.Frontend.cluster.attemptTimeout = 10 * time.Second
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/advise", bytes.NewReader([]byte(body)))
		lc.Frontend.ServeHTTP(w, req)
		done <- w
	}()

	// Wait until the solve is actually in flight on the owner, then
	// kill it mid-solve.
	deadline := time.Now().Add(5 * time.Second)
	for lc.InflightSolves() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if lc.InflightSolves() == 0 {
		t.Fatal("solve never started")
	}
	lc.Transport.Kill(owner)

	w := <-done
	if w.Code != 200 {
		t.Fatalf("leader death: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Worker"); got == owner || got == "" {
		t.Errorf("X-Worker = %q, want the successor of killed %q", got, owner)
	}
	if got := lc.Frontend.cluster.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}

	// Every solve — frontend leader, dead worker's cancelled
	// solve, successor's solve — must drain.
	drainCluster(t, lc, 10*time.Second)
	if n := lc.Frontend.flight.len(); n != 0 {
		t.Errorf("frontend flight group holds %d keys after the request finished", n)
	}
	for i, ws := range lc.Workers {
		if n := ws.flight.len(); n != 0 {
			t.Errorf("worker %d flight group holds %d keys", i, n)
		}
	}

	// The key is retired and the successor's answer was memoized: the
	// repeat is a local hit, no forward, no join on a dead call.
	w2 := do(t, lc.Frontend, "POST", "/v1/advise", body)
	if w2.Code != 200 || w2.Header().Get("X-Cache") != "hit" {
		t.Errorf("post-death repeat: status %d, X-Cache %q, want 200/hit", w2.Code, w2.Header().Get("X-Cache"))
	}
}
