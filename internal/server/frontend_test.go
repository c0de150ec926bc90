package server

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/shard"
)

// shardHealth is shorthand for the detector tuning tests use.
func shardHealth(failThreshold int, cooldown time.Duration) shard.HealthConfig {
	return shard.HealthConfig{FailThreshold: failThreshold, Cooldown: cooldown}
}

// testCluster builds a LocalCluster with the background health loop
// disabled (tests drive the failure detector through CheckHealthNow)
// and registers cleanup.
func testCluster(t *testing.T, opts LocalClusterOptions) *LocalCluster {
	t.Helper()
	if opts.Cluster.HealthInterval == 0 {
		opts.Cluster.HealthInterval = -1
	}
	lc := NewLocalCluster(opts)
	t.Cleanup(lc.Close)
	return lc
}

// drainCluster waits for every live solve across the whole
// topology — frontend and workers — to exit.
func drainCluster(t *testing.T, lc *LocalCluster, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for lc.InflightSolves() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := lc.InflightSolves(); n != 0 {
		t.Fatalf("%d solves still live across the cluster after %v", n, within)
	}
}

// ownerOf learns which worker the ring assigns a request by running it
// on a throwaway cluster with the same seed and fleet size (routing is
// a pure function of seed, worker IDs, and the canonical cache key, so
// the answer transfers to any identically-configured cluster). The
// probe cluster is healthy, so the caller's fault-detection tuning — a
// tight attempt timeout — is replaced with a generous one: under -race
// a cold solve can outlast an AttemptTimeout sized for a partition
// drill, and the probe must never shed.
func ownerOf(t *testing.T, opts LocalClusterOptions, path, body string) string {
	t.Helper()
	opts.Cluster.AttemptTimeout = time.Minute
	lc := testCluster(t, opts)
	w := do(t, lc.Frontend, "POST", path, body)
	if w.Code != 200 {
		t.Fatalf("owner probe: status %d: %s", w.Code, w.Body.String())
	}
	owner := w.Header().Get("X-Worker")
	if owner == "" {
		t.Fatal("owner probe: no X-Worker header on a forwarded miss")
	}
	drainCluster(t, lc, 5*time.Second)
	return owner
}

// TestClusterForwardAndMemoize pins the frontend's basic contract: a
// cold request is forwarded to exactly one ring worker (X-Worker set,
// X-Cache: miss), the response fills the frontend cache, and the
// byte-identical repeat is served locally with no further forwards.
func TestClusterForwardAndMemoize(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{Workers: 3})
	body := adviseBody("mv1", `"budget":25`)

	w := do(t, lc.Frontend, "POST", "/v1/advise", body)
	if w.Code != 200 {
		t.Fatalf("cold: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want \"miss\"", got)
	}
	worker := w.Header().Get("X-Worker")
	if !strings.HasPrefix(worker, "worker-") {
		t.Errorf("X-Worker = %q, want a ring worker ID", worker)
	}
	if got := lc.Frontend.cluster.forwards.Load(); got != 1 {
		t.Errorf("forwards = %d, want 1", got)
	}

	// The worker solved it too, so its own cache holds the entry.
	drainCluster(t, lc, 5*time.Second)

	w2 := do(t, lc.Frontend, "POST", "/v1/advise", body)
	if w2.Code != 200 || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d, X-Cache %q, want 200/hit", w2.Code, w2.Header().Get("X-Cache"))
	}
	if w2.Body.String() != w.Body.String() {
		t.Error("cached repeat is not byte-identical to the forwarded original")
	}
	if got := lc.Frontend.cluster.forwards.Load(); got != 1 {
		t.Errorf("forwards after cache hit = %d, want still 1", got)
	}
}

// TestClusterRoutingDeterministic pins cross-frontend agreement: two
// independent frontends sharing a seed and fleet shape must route the
// same request to the same worker ID — the property that keeps each
// worker's cache hot for "its" keys no matter which frontend a client
// hits.
func TestClusterRoutingDeterministic(t *testing.T) {
	opts := LocalClusterOptions{Workers: 4, Cluster: ClusterOptions{Seed: 42}}
	body := adviseBody("mv1", `"budget":31`)
	a := ownerOf(t, opts, "/v1/advise", body)
	b := ownerOf(t, opts, "/v1/advise", body)
	if a != b {
		t.Errorf("same seed routed %q vs %q", a, b)
	}
	// A different seed should (for this key) be free to disagree; more
	// importantly it must still serve. Exact divergence is pinned by the
	// ring's own property tests.
	if w := do(t, testCluster(t, LocalClusterOptions{Workers: 4, Cluster: ClusterOptions{Seed: 7}}).Frontend,
		"POST", "/v1/advise", body); w.Code != 200 {
		t.Errorf("other-seed cluster: status %d", w.Code)
	}
}

// TestClusterFailoverOnDeadWorker kills a key's owner before the
// request: the first attempt fails fast (connection refused), the
// frontend fails over to the ring successor, and the client sees a
// plain 200 — the failure is invisible apart from the X-Worker header.
func TestClusterFailoverOnDeadWorker(t *testing.T) {
	opts := LocalClusterOptions{Workers: 3, Cluster: ClusterOptions{Seed: 5}}
	body := adviseBody("mv1", `"budget":25`)
	owner := ownerOf(t, opts, "/v1/advise", body)

	lc := testCluster(t, opts)
	lc.KillWorker(owner)
	w := do(t, lc.Frontend, "POST", "/v1/advise", body)
	if w.Code != 200 {
		t.Fatalf("failover: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Worker"); got == owner || got == "" {
		t.Errorf("X-Worker = %q, want a successor of dead %q", got, owner)
	}
	if got := lc.Frontend.cluster.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	drainCluster(t, lc, 5*time.Second)
}

// TestClusterAllDownDegrades is the darkest corner: every worker dead.
// A key the frontend's stale tier still holds is served with
// X-Cache: stale; anything else is shed with 429 + Retry-After. No
// hangs, no raw 5xx.
func TestClusterAllDownDegrades(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{
		Workers:  2,
		Frontend: Options{CacheSize: 1},
	})
	bodyA := adviseBody("mv1", `"budget":25`)
	bodyB := adviseBody("mv1", `"budget":40`)

	if w := do(t, lc.Frontend, "POST", "/v1/advise", bodyA); w.Code != 200 {
		t.Fatalf("prime A: status %d: %s", w.Code, w.Body.String())
	}
	// B evicts A from the 1-entry frontend cache into the stale tier.
	if w := do(t, lc.Frontend, "POST", "/v1/advise", bodyB); w.Code != 200 {
		t.Fatalf("prime B: status %d: %s", w.Code, w.Body.String())
	}
	if lc.Frontend.stale.Len() == 0 {
		t.Fatal("eviction did not populate the frontend stale tier")
	}
	drainCluster(t, lc, 5*time.Second)
	for _, id := range lc.WorkerIDs() {
		lc.KillWorker(id)
	}

	// A's response is only in the stale tier: served, clearly marked.
	start := time.Now()
	w := do(t, lc.Frontend, "POST", "/v1/advise", bodyA)
	if w.Code != 200 || w.Header().Get("X-Cache") != "stale" {
		t.Fatalf("stale serve: status %d, X-Cache %q: %s", w.Code, w.Header().Get("X-Cache"), w.Body.String())
	}
	// B is still in the primary cache: an ordinary hit, fleet or no fleet.
	if w := do(t, lc.Frontend, "POST", "/v1/advise", bodyB); w.Header().Get("X-Cache") != "hit" {
		t.Errorf("resident key during outage: X-Cache = %q, want \"hit\"", w.Header().Get("X-Cache"))
	}
	// A cold key has nothing to fall back on: shed with backoff advice.
	w = do(t, lc.Frontend, "POST", "/v1/advise", adviseBody("mv1", `"budget":77`))
	if w.Code != 429 {
		t.Fatalf("cold key during outage: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	if !strings.Contains(w.Body.String(), "no healthy worker") {
		t.Errorf("shed body: %s", w.Body.String())
	}
	// Dead workers refuse instantly; nothing above may burn a timeout.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("all-down handling took %v, want fast-fail", elapsed)
	}
	if got := lc.Frontend.cluster.allDown.Load(); got < 2 {
		t.Errorf("allDown = %d, want ≥ 2", got)
	}
	drainCluster(t, lc, 5*time.Second)
}

// TestClusterHealthEjectionAndRecovery drives the failure detector
// deterministically: consecutive probe failures eject a worker, the
// cooldown grants a half-open probe, and a successful probe closes the
// breaker.
func TestClusterHealthEjectionAndRecovery(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{
		Workers: 2,
		Cluster: ClusterOptions{
			Health: shardHealth(2, 30*time.Millisecond),
		},
	})
	lc.KillWorker("worker-0")
	lc.Frontend.CheckHealthNow()
	lc.Frontend.CheckHealthNow()

	if !ejected(lc, "worker-0") {
		t.Fatal("worker-0 not ejected after 2 failed probes")
	}
	if ejected(lc, "worker-1") {
		t.Fatal("healthy worker-1 ejected")
	}

	// Still inside the cooldown: no probe slot, stays ejected.
	lc.Frontend.CheckHealthNow()
	if !ejected(lc, "worker-0") {
		t.Fatal("worker-0 probed before its cooldown elapsed")
	}

	lc.ReviveWorker("worker-0")
	time.Sleep(40 * time.Millisecond)
	lc.Frontend.CheckHealthNow()
	if ejected(lc, "worker-0") {
		t.Fatal("worker-0 still ejected after a successful half-open probe")
	}
}

func ejected(lc *LocalCluster, id string) bool {
	for _, w := range lc.Frontend.cluster.health.Snapshot() {
		if w.Worker == id {
			return w.Ejected
		}
	}
	return false
}

// TestClusterPartitionFailsOver pins the nastier fault: a partitioned
// owner swallows the request instead of refusing it, so only the
// per-attempt timeout reveals the failure — after which the successor
// serves.
func TestClusterPartitionFailsOver(t *testing.T) {
	opts := LocalClusterOptions{
		Workers: 2,
		Cluster: ClusterOptions{Seed: 11, AttemptTimeout: 100 * time.Millisecond},
	}
	body := adviseBody("mv1", `"budget":25`)
	owner := ownerOf(t, opts, "/v1/advise", body)

	lc := testCluster(t, opts)
	// Warm every worker's own cache so the successor answers the
	// failover instantly: the test times the partition *detection* (one
	// AttemptTimeout), and must not also race the successor's cold
	// solve against that same 100ms budget under -race.
	for _, ws := range lc.Workers {
		do(t, ws, "POST", "/v1/advise", body)
		drainSolves(t, ws, 5*time.Second)
	}
	lc.PartitionWorker(owner)
	start := time.Now()
	w := do(t, lc.Frontend, "POST", "/v1/advise", body)
	elapsed := time.Since(start)
	if w.Code != 200 {
		t.Fatalf("partition failover: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Worker"); got == owner {
		t.Errorf("served by the partitioned owner %q", got)
	}
	if elapsed < 100*time.Millisecond {
		t.Errorf("response in %v — the partition cannot have been detected before the attempt timeout", elapsed)
	}
	if got := lc.Frontend.cluster.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	drainCluster(t, lc, 5*time.Second)
}

// TestClusterWorkerShedPassthrough: an alive-but-overloaded owner's
// 429 is relayed with its Retry-After rather than treated as a failure
// — failing over would load the successor exactly when the fleet can
// least afford it.
func TestClusterWorkerShedPassthrough(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{
		Workers: 1,
		Worker:  Options{AdviseWorkers: 1, AdviseQueue: -1},
	})
	// A phantom backlog entry stands in for an in-flight solve on the
	// worker — deterministic, no timing.
	lc.Workers[0].admCheap.backlog.Add(1)

	w := do(t, lc.Frontend, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`))
	if w.Code != 429 {
		t.Fatalf("status %d, want 429 passthrough: %s", w.Code, w.Body.String())
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	cl := lc.Frontend.cluster
	if got := cl.failovers.Load(); got != 0 {
		t.Errorf("failovers = %d, want 0 (shed is not a failure)", got)
	}
	if got := cl.allDown.Load(); got != 0 {
		t.Errorf("allDown = %d, want 0", got)
	}

	// Backlog drains → the same request is admitted and served.
	lc.Workers[0].admCheap.backlog.Add(-1)
	if w := do(t, lc.Frontend, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`)); w.Code != 200 {
		t.Fatalf("post-drain advise: status %d: %s", w.Code, w.Body.String())
	}
	drainCluster(t, lc, 5*time.Second)
}

// TestClusterDegradedNotMemoized: a worker that degrades at its solve
// deadline marks the response, and the frontend relays the marker
// without memoizing the timing-dependent body — the repeat forwards
// again.
func TestClusterDegradedNotMemoized(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{
		Workers: 2,
		Worker: Options{
			RequestTimeout: 100 * time.Millisecond,
			DegradeGrace:   5 * time.Second,
			AdviseWorkers:  32,
			Chaos:          &ChaosConfig{Seed: 1, LatencyProb: 1, Latency: 10 * time.Second},
		},
	})
	body := adviseBody("mv1", `"budget":25,"solver":"search"`)
	for round := 1; round <= 2; round++ {
		w := do(t, lc.Frontend, "POST", "/v1/advise", body)
		if w.Code != 200 {
			t.Fatalf("round %d: status %d: %s", round, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Degraded"); got != "true" {
			t.Errorf("round %d: X-Degraded = %q, want \"true\"", round, got)
		}
		// Round 2 missing proves round 1's degraded body was not cached.
		if got := w.Header().Get("X-Cache"); got != "miss" {
			t.Errorf("round %d: X-Cache = %q, want \"miss\"", round, got)
		}
		drainCluster(t, lc, 10*time.Second)
	}
	if n := lc.Frontend.cache.Len(); n != 0 {
		t.Errorf("frontend memoized %d degraded responses", n)
	}
}

// TestClusterStatsAndMetrics: the routing plane surfaces on /v1/stats
// (cluster section with per-worker health) and /metrics.
func TestClusterStatsAndMetrics(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{Workers: 2})
	if w := do(t, lc.Frontend, "POST", "/v1/advise", adviseBody("mv1", `"budget":25`)); w.Code != 200 {
		t.Fatalf("prime: status %d", w.Code)
	}
	drainCluster(t, lc, 5*time.Second)

	w := do(t, lc.Frontend, "GET", "/v1/stats", "")
	for _, want := range []string{`"cluster"`, `"workers"`, `"worker-0"`, `"worker-1"`, `"forwards":1`} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/v1/stats missing %s: %s", want, w.Body.String())
		}
	}
	samples := scrape(t, lc.Frontend)
	if v, _ := findSample(samples, "mvcloud_cluster_forwards_total", nil); v != 1 {
		t.Errorf("mvcloud_cluster_forwards_total = %g, want 1", v)
	}
	if v, _ := findSample(samples, "mvcloud_cluster_workers", nil); v != 2 {
		t.Errorf("mvcloud_cluster_workers = %g, want 2", v)
	}
	if v, _ := findSample(samples, "mvcloud_cluster_workers_ejected", nil); v != 0 {
		t.Errorf("mvcloud_cluster_workers_ejected = %g, want 0", v)
	}
}

// TestClusterChaosSeededFaults: the deterministic chaos harness
// pre-kills/partitions the same workers for the same seed, so chaos
// runs reproduce exactly.
func TestClusterChaosSeededFaults(t *testing.T) {
	faults := func(seed int64) (killed []string) {
		c := &ChaosConfig{Seed: seed, WorkerKillProb: 0.5}
		for _, id := range []string{"worker-0", "worker-1", "worker-2", "worker-3"} {
			if c.killsWorker(id) {
				killed = append(killed, id)
			}
		}
		return
	}
	a, b := faults(9), faults(9)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("same seed chose different victims: %v vs %v", a, b)
	}
	// With prob 0.5 over 4 workers, seeds that kill at least one worker
	// exist in any short scan; pin one seed's choice is stable rather
	// than a specific victim set.
	found := false
	for seed := int64(0); seed < 16 && !found; seed++ {
		found = len(faults(seed)) > 0
	}
	if !found {
		t.Error("no seed in [0,16) kills any worker at prob 0.5 — roll is broken")
	}
}
