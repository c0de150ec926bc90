package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmcloud/internal/pricing"
)

// The five end-to-end chaos contracts: a seeded stream of valid
// advise/compare/sweep requests lands on a whole in-process topology
// from many clients at once while a fault is injected, and the
// assertions are about what clients saw (only 200s and 429s with
// Retry-After, every response accounted for by its X-Cache outcome)
// and what the servers kept (no solve live after drain). They run
// in the plain and -race CI steps with no skip or env gate. Wall time
// is not measured here — that is bench/'s job.

// e2eLoad is one seeded traffic run.
type e2eLoad struct {
	seed     int64
	requests int
	clients  int
	// first numbers the run's first distinct body on each endpoint; a
	// follow-on run starts past its predecessor's request count so none
	// of its keys is memoized yet.
	first int
	// repeat is the share of requests that replay a body already
	// issued on the same endpoint, uniformly chosen.
	repeat float64
	// mix weights advise : compare : sweep.
	mix [3]int
}

var e2eEndpoints = [3]string{"advise", "compare", "sweep"}

// e2eBody is the n-th distinct body for one endpoint: advise walks the
// four scenarios, the grid endpoints walk adjacent provider pairs (2
// providers x 2 fleets), and the frequency makes every n a new key.
func e2eBody(endpoint, n int) string {
	if endpoint == 0 {
		knob := [4][2]string{
			{"mv1", `"budget":25`}, {"mv2", `"limit":"4h"`},
			{"mv3", `"alpha":0.5`}, {"pareto", `"steps":4`},
		}[n%4]
		return adviseBody(knob[0], fmt.Sprintf(`%s,"frequency":%d`, knob[1], 10+n))
	}
	names := pricing.ProviderNames()
	grid := fmt.Sprintf(`"providers":[%q,%q],"fleet_sizes":[3,5],"frequency":%d`,
		names[n%len(names)], names[(n+1)%len(names)], 10+n)
	if endpoint == 1 {
		return compareBody(grid)
	}
	return sweepBody(grid)
}

// e2eTally is what the clients saw on one endpoint. Anything that is
// not a 200 or a 429 carrying Retry-After is an error: the traffic is
// all valid, so an error is a server bug or an injected panic.
type e2eTally struct {
	requests, errors, shed         int
	hits, misses, coalesced, stale int
	degraded                       int
	latency                        []time.Duration
}

func (a e2eTally) served() int { return a.hits + a.misses + a.coalesced }

// e2eTotal folds the per-endpoint tallies into one.
func e2eTotal(by [3]e2eTally) e2eTally {
	var sum e2eTally
	for _, a := range by {
		sum.requests += a.requests
		sum.errors += a.errors
		sum.shed += a.shed
		sum.hits += a.hits
		sum.misses += a.misses
		sum.coalesced += a.coalesced
		sum.stale += a.stale
		sum.degraded += a.degraded
		sum.latency = append(sum.latency, a.latency...)
	}
	return sum
}

// run synthesizes the sequence and drives it at s from l.clients
// goroutines pulling from one cursor: the interleaving is the
// scheduler's, the request multiset is exactly the seeded sequence.
func (l e2eLoad) run(t *testing.T, s *Server) [3]e2eTally {
	type request struct {
		endpoint int
		body     string
	}
	rng := rand.New(rand.NewSource(l.seed))
	weight := l.mix[0] + l.mix[1] + l.mix[2]
	var issued [3][]string
	reqs := make([]request, l.requests)
	for i := range reqs {
		ep := 0
		for pick := rng.Intn(weight); pick >= l.mix[ep]; ep++ {
			pick -= l.mix[ep]
		}
		if len(issued[ep]) == 0 || rng.Float64() >= l.repeat {
			issued[ep] = append(issued[ep], e2eBody(ep, l.first+len(issued[ep])))
			reqs[i] = request{ep, issued[ep][len(issued[ep])-1]}
		} else {
			reqs[i] = request{ep, issued[ep][rng.Intn(len(issued[ep]))]}
		}
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		by     [3]e2eTally
	)
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := cursor.Add(1) - 1; i < int64(len(reqs)); i = cursor.Add(1) - 1 {
				r := reqs[i]
				t0 := time.Now()
				w := do(t, s, "POST", "/v1/"+e2eEndpoints[r.endpoint], r.body)
				d := time.Since(t0)
				h := w.Header()
				mu.Lock()
				a := &by[r.endpoint]
				a.requests++
				a.latency = append(a.latency, d)
				switch {
				case w.Code == 429 && h.Get("Retry-After") != "":
					a.shed++
				case w.Code != 200:
					a.errors++
				default:
					if h.Get("X-Degraded") == "true" {
						a.degraded++
					}
					switch h.Get("X-Cache") {
					case "hit":
						a.hits++
					case "miss":
						a.misses++
					case "coalesced":
						a.coalesced++
					case "stale":
						a.stale++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return by
}

// TestCoalescingRaceE2E drives the full in-process stack with a
// duplicate-dense advise-heavy mix tuned to keep concurrent identical
// requests in flight: 85% repeats over a small issued set make repeats
// land while the leader is still solving. Its job is to put the
// flightGroup leader/follower handoff, the cache-fill publication and
// the zero-copy hit path in front of the race detector every CI run.
// The server timeout is raised because the race detector serializes
// enough that queue wait, not solve time, dominates; a 503 here would
// be noise, not signal.
func TestCoalescingRaceE2E(t *testing.T) {
	srv := New(Options{RequestTimeout: 5 * time.Minute})
	load := e2eLoad{seed: 7, requests: 500, clients: 16, repeat: 0.85, mix: [3]int{8, 1, 1}}
	by := load.run(t, srv)
	all := e2eTotal(by)
	if all.requests != load.requests {
		t.Fatalf("total %d, want %d", all.requests, load.requests)
	}
	if all.errors != 0 || all.shed != 0 {
		t.Fatalf("%d errors, %d shed in synthesized traffic", all.errors, all.shed)
	}
	for ep, a := range by {
		if a.served() != a.requests {
			t.Errorf("%s: hits %d + misses %d + coalesced %d != requests %d",
				e2eEndpoints[ep], a.hits, a.misses, a.coalesced, a.requests)
		}
	}
	// 16 clients at 85% duplicates: repeats of a just-issued body land
	// while its leader is still solving. Zero means the stampede
	// suppression is not engaging at all.
	if all.coalesced == 0 {
		t.Error("no request was coalesced; singleflight path never exercised")
	}

	// The server's own books agree with the clients': every request is
	// in exactly one outcome series of its endpoint's latency histogram.
	samples := scrape(t, srv)
	for ep, a := range by {
		var count float64
		for _, sm := range samples {
			if sm.Name == "mvcloud_http_request_duration_seconds_count" && sm.Label("endpoint") == e2eEndpoints[ep] {
				count += sm.Value
			}
		}
		if int(count) != a.requests {
			t.Errorf("%s: server histogram count %v != %d requests sent", e2eEndpoints[ep], count, a.requests)
		}
	}
	t.Logf("requests=%d coalesced=%d", all.requests, all.coalesced)
}

// TestOverloadShedsHeavyKeepsAdviseE2E is the overload scenario: a
// sweep-flooded mix against a server whose heavy class has one worker
// and no queue. The contract under test is the whole admission-control
// story — heavy solves are shed with 429 (tallied as sheds, not
// errors), the cheap advise class keeps serving 200s with a bounded
// p95, and after the run drains not a single solve is left
// behind.
func TestOverloadShedsHeavyKeepsAdviseE2E(t *testing.T) {
	srv := New(Options{
		RequestTimeout: time.Minute,
		HeavyWorkers:   1,
		HeavyQueue:     -1,
		// Every heavy solve also sleeps, so the single worker stays busy
		// and the flood behind it is genuinely shed. Deterministic: the
		// chaos decisions depend only on (seed, key).
		Chaos: &ChaosConfig{Seed: 3, LatencyProb: 1, Latency: 50 * time.Millisecond},
	})
	// Mostly fresh bodies: each sweep is a new solve.
	load := e2eLoad{seed: 11, requests: 300, clients: 16, repeat: 0.3, mix: [3]int{2, 1, 8}}
	by := load.run(t, srv)
	all := e2eTotal(by)
	if all.errors != 0 {
		t.Fatalf("%d hard errors under overload (sheds must be 429s, not errors)", all.errors)
	}
	adv, heavyShed := by[0], by[1].shed+by[2].shed
	if heavyShed == 0 {
		t.Error("sweep flood against a 1-worker/0-queue heavy class shed nothing")
	}
	if adv.requests == 0 {
		t.Fatal("mix synthesized no advise traffic")
	}
	if adv.shed != 0 {
		t.Errorf("advise shed %d requests; the cheap class must not feel heavy overload", adv.shed)
	}
	// Advise p95 stays bounded while the heavy flood is being shed: the
	// classes have separate worker pools, and every advise request is
	// either a cache hit or a cheap knapsack solve. The bound is very
	// generous (race-detector CI runs cold solves several times slower)
	// but catastrophic head-of-line blocking — advise requests queued
	// behind the single 50ms+ heavy worker for the whole run — blows
	// straight through it.
	slices.Sort(adv.latency)
	p95 := adv.latency[(len(adv.latency)*95+99)/100-1] // nearest rank
	if p95 > 10*time.Second {
		t.Errorf("advise p95 = %v under heavy flood, want bounded", p95)
	}
	drainSolves(t, srv, 10*time.Second)
	t.Logf("advise p95=%v shed=%d (heavy) requests=%d", p95, heavyShed, all.requests)
}

// TestChaosPanicContainmentE2E floods a chaos server whose solves
// panic with probability ~1/3 and checks the daemon-level contract:
// panicking solves become 500s (counted as errors by the driver),
// everything else still serves, and the run drains clean.
func TestChaosPanicContainmentE2E(t *testing.T) {
	srv := New(Options{
		RequestTimeout: time.Minute,
		Chaos:          &ChaosConfig{Seed: 9, PanicProb: 0.34},
	})
	load := e2eLoad{seed: 13, requests: 200, clients: 8, repeat: 0.5, mix: [3]int{8, 1, 1}}
	all := e2eTotal(load.run(t, srv))
	// The seeded coin decides per key, so with ~1/3 probability over
	// dozens of distinct keys both sides are guaranteed in practice:
	// some solves panicked (surfacing as errors), some served fine.
	if all.errors == 0 {
		t.Error("panic injection at p=0.34 produced no errors; chaos not engaging")
	}
	if all.served() == 0 {
		t.Error("no request served successfully; panics were not contained per-solve")
	}
	if all.errors+all.served()+all.shed != all.requests {
		t.Errorf("outcome accounting: errors %d + served %d + shed %d != total %d",
			all.errors, all.served(), all.shed, all.requests)
	}
	drainSolves(t, srv, 10*time.Second)
	t.Logf("errors(panics)=%d served=%d", all.errors, all.served())
}

// TestClusterChaosKillAllButOneE2E is the cluster-mode chaos gate: a
// 3-worker fleet takes a mixed load while 2 of the 3 workers are
// killed mid-run. The contract is the overload-safe serving story
// extended across the topology — zero hung requests, zero hard errors
// (every response is a success, degraded, stale serve, or
// 429+Retry-After), and after the run drains there is not one solve
// goroutine left anywhere: frontend, survivors, or corpses.
func TestClusterChaosKillAllButOneE2E(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{
		Workers:  3,
		Frontend: Options{RequestTimeout: time.Minute},
		Worker:   Options{RequestTimeout: time.Minute},
		Cluster: ClusterOptions{
			Seed: 17,
			// A dead worker refuses instantly: its first three failed
			// forwards, each answered by a successor, eject it.
			AttemptTimeout: 10 * time.Second,
		},
	})

	// Kill all but worker-2 once the run is underway: requests in
	// flight on the victims observe a connection reset mid-solve and
	// fail over; later requests find the corpses ejected.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(150 * time.Millisecond)
		lc.Transport.Kill("worker-0")
		lc.Transport.Kill("worker-1")
	}()

	load := e2eLoad{seed: 19, requests: 500, clients: 16, repeat: 0.3, mix: [3]int{6, 1, 1}}
	all := e2eTotal(load.run(t, lc.Frontend))
	<-killed
	// Without the race detector the run above is over before the kill
	// lands. The tail starts the instant it has, on keys nothing has
	// memoized: two in three belong to a corpse the detector may not
	// have ejected yet, and only worker-2 is left to serve them.
	tail := load
	tail.first, tail.requests = load.requests, 100
	after := e2eTotal(tail.run(t, lc.Frontend))

	// The hard gate: nothing but 200s and 429s ever reached a client.
	if all.errors+after.errors != 0 {
		t.Fatalf("%d+%d hard errors with 2/3 workers dead (want only success/degraded/stale/429)", all.errors, after.errors)
	}
	if all.served() == 0 || after.served() == 0 {
		t.Fatalf("served %d during, %d after the kill: the surviving worker did not carry its share of the ring",
			all.served(), after.served())
	}
	for _, a := range []e2eTally{all, after} {
		if a.served()+a.shed != a.requests {
			t.Errorf("outcome accounting: served %d + shed %d != total %d (stale %d, degraded %d)",
				a.served(), a.shed, a.requests, a.stale, a.degraded)
		}
	}
	// Whole-topology drain: the killed workers' cancelled solves, the
	// survivors' real ones, and the frontend's forward leaders must all
	// exit.
	drainCluster(t, lc, 10*time.Second)
	t.Logf("served=%d+%d shed=%d+%d total=%d+%d", all.served(), after.served(), all.shed, after.shed, all.requests, after.requests)
}

// TestClusterPartitionChaosE2E drives the nastier fault through the
// same driver: one worker is partitioned (forwards hang, not fail)
// mid-run. With a tight per-attempt timeout the frontend converts the
// silence into failovers; the run must still finish with zero hard
// errors and drain clean.
func TestClusterPartitionChaosE2E(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{
		Workers:  3,
		Frontend: Options{RequestTimeout: time.Minute},
		Worker:   Options{RequestTimeout: time.Minute},
		Cluster: ClusterOptions{
			Seed:           23,
			AttemptTimeout: 250 * time.Millisecond,
		},
	})
	partitioned := make(chan struct{})
	go func() {
		defer close(partitioned)
		time.Sleep(100 * time.Millisecond)
		lc.Transport.Partition("worker-1")
	}()

	load := e2eLoad{seed: 29, requests: 200, clients: 8, repeat: 0.4, mix: [3]int{8, 1, 1}}
	all := e2eTotal(load.run(t, lc.Frontend))
	<-partitioned
	// As in the kill test: the tail's fresh keys arrive once the fault
	// is certainly in place, so a third of them go silent on worker-1
	// until the attempt timeout (or the detector) moves them on.
	tail := load
	tail.first, tail.requests = load.requests, 100
	after := e2eTotal(tail.run(t, lc.Frontend))
	if all.errors+after.errors != 0 {
		t.Fatalf("%d+%d hard errors under partition (want silence converted to failover, not 5xx)", all.errors, after.errors)
	}
	if after.served() == 0 {
		t.Fatal("nothing served after the partition")
	}
	// The attempt timeout, not the one-minute request timeout, is what
	// ends the silence: a request crosses at most the whole ring at
	// 250ms an attempt. Generous for the race detector, and forty times
	// under what a request rescued by its own deadline would take.
	if slowest := max(slices.Max(all.latency), slices.Max(after.latency)); slowest > 10*time.Second {
		t.Errorf("slowest request took %v; forwards to the partitioned worker are not timing out per attempt", slowest)
	}
	drainCluster(t, lc, 10*time.Second)
}
