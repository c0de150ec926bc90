package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vmcloud/internal/obs"
	"vmcloud/internal/shard"
)

// ClusterOptions turns a Server into a stateless cluster frontend: it
// keeps its own canonicalization, memoization, singleflight and stale
// tiers, but routes every cold solve to a worker chosen by rendezvous
// hashing on the canonical cache key — so each worker's LRU, kernel
// sessions and pools stay hot for "its" problems — with health-checked
// failover to the ring successor, optional hedging for heavy solves,
// and shed-or-stale degradation when a key's whole candidate set is
// down. Zero values select defaults.
type ClusterOptions struct {
	// Workers are the worker IDs forming the ring; required, and must
	// be resolvable by Transport.
	Workers []string
	// Transport moves solves to workers; required (MemTransport for
	// in-process fleets, HTTPTransport for real ones).
	Transport Transport
	// Seed keys the rendezvous ring and must agree across every
	// frontend sharing the worker tier.
	Seed int64
	// Health tunes the failure detector (consecutive-failure and
	// latency-EWMA ejection, half-open cooldown).
	Health shard.HealthConfig
	// HealthInterval is the active health-check period (default 1s).
	// Negative disables the background loop — tests drive the detector
	// deterministically through CheckHealthNow.
	HealthInterval time.Duration
	// CheckTimeout bounds one health probe (default 500ms).
	CheckTimeout time.Duration
	// AttemptTimeout bounds one forwarded attempt (default half the
	// request timeout, so a partition burning the first attempt still
	// leaves the successor a full try inside the request's deadline).
	AttemptTimeout time.Duration
	// MaxAttempts bounds the failover budget per request: the primary
	// plus MaxAttempts-1 ring successors (default 2).
	MaxAttempts int
	// HedgeQuantile picks the per-class latency quantile after which a
	// heavy (compare/sweep) solve is hedged to the next worker (default
	// 0.95). Hedging starts only after HedgeMinObservations solves
	// (default 20) and never fires below HedgeFloor (default 10ms).
	HedgeQuantile        float64
	HedgeMinObservations int
	HedgeFloor           time.Duration
	// HedgeAfter, when positive, is a fixed hedge delay overriding the
	// quantile machinery (tests pin exact behaviour with it).
	HedgeAfter time.Duration
}

func (o ClusterOptions) withDefaults(requestTimeout time.Duration) ClusterOptions {
	if o.HealthInterval == 0 {
		o.HealthInterval = time.Second
	}
	if o.CheckTimeout <= 0 {
		o.CheckTimeout = 500 * time.Millisecond
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = requestTimeout / 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile >= 1 {
		o.HedgeQuantile = 0.95
	}
	if o.HedgeMinObservations <= 0 {
		o.HedgeMinObservations = 20
	}
	if o.HedgeFloor <= 0 {
		o.HedgeFloor = 10 * time.Millisecond
	}
	return o
}

// clusterState is the frontend's routing plane: the ring, the failure
// detector, and the fan-out counters.
type clusterState struct {
	opts      ClusterOptions
	ring      *shard.Ring
	health    *shard.Tracker
	transport Transport

	// forwards/failovers/hedges/hedgeWins count routing decisions:
	// attempts sent, attempts that fell over to a successor, hedges
	// launched, and hedges that beat the primary.
	forwards  atomic.Int64
	failovers atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	// allDown counts requests whose every candidate was unusable or
	// failed — the shed-or-stale degradation path.
	allDown atomic.Int64
}

// newClusterState validates and builds the routing plane.
func newClusterState(opts ClusterOptions, requestTimeout time.Duration) (*clusterState, error) {
	if opts.Transport == nil {
		return nil, errors.New("cluster: Transport required")
	}
	ring, err := shard.New(opts.Seed, opts.Workers)
	if err != nil {
		return nil, err
	}
	o := opts.withDefaults(requestTimeout)
	return &clusterState{
		opts:      o,
		ring:      ring,
		health:    shard.NewTracker(o.Health, ring.Workers()),
		transport: o.Transport,
	}, nil
}

// registerClusterMetrics exposes the routing plane on /metrics.
func (cl *clusterState) registerClusterMetrics(reg *obs.Registry) {
	reg.CounterFunc("mvcloud_cluster_forwards_total", "Solve attempts forwarded to workers.",
		func() float64 { return float64(cl.forwards.Load()) })
	reg.CounterFunc("mvcloud_cluster_failovers_total", "Forwarded attempts that failed over to a ring successor.",
		func() float64 { return float64(cl.failovers.Load()) })
	reg.CounterFunc("mvcloud_cluster_hedges_total", "Hedged attempts launched for slow heavy solves.",
		func() float64 { return float64(cl.hedges.Load()) })
	reg.CounterFunc("mvcloud_cluster_hedge_wins_total", "Hedged attempts that returned before the primary.",
		func() float64 { return float64(cl.hedgeWins.Load()) })
	reg.CounterFunc("mvcloud_cluster_all_down_total", "Requests whose every ring candidate was down (shed or served stale).",
		func() float64 { return float64(cl.allDown.Load()) })
	reg.GaugeFunc("mvcloud_cluster_workers", "Workers in the ring.",
		func() float64 { return float64(cl.ring.Len()) })
	reg.GaugeFunc("mvcloud_cluster_workers_ejected", "Workers currently ejected by the failure detector.",
		func() float64 {
			n := 0
			for _, w := range cl.health.Snapshot() {
				if w.Ejected {
					n++
				}
			}
			return float64(n)
		})
}

// clusterStatsJSON is the /v1/stats cluster section.
type clusterStatsJSON struct {
	Workers   []shard.WorkerHealth `json:"workers"`
	Forwards  int64                `json:"forwards"`
	Failovers int64                `json:"failovers"`
	Hedges    int64                `json:"hedges"`
	HedgeWins int64                `json:"hedge_wins"`
	AllDown   int64                `json:"all_down"`
}

func (cl *clusterState) statsJSON() *clusterStatsJSON {
	return &clusterStatsJSON{
		Workers:   cl.health.Snapshot(),
		Forwards:  cl.forwards.Load(),
		Failovers: cl.failovers.Load(),
		Hedges:    cl.hedges.Load(),
		HedgeWins: cl.hedgeWins.Load(),
		AllDown:   cl.allDown.Load(),
	}
}

// healthLoop drives active health checks until the server closes.
func (s *Server) healthLoop() {
	t := time.NewTicker(s.cluster.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.CheckHealthNow()
		}
	}
}

// CheckHealthNow probes every worker once, concurrently, and feeds the
// failure detector. The background loop calls it each interval; tests
// call it directly for deterministic detector transitions. Ejected
// workers are probed only when their cooldown grants the half-open
// slot, so a dead worker costs one probe per cooldown, not one per
// interval.
func (s *Server) CheckHealthNow() {
	cl := s.cluster
	if cl == nil {
		return
	}
	var wg sync.WaitGroup
	for _, w := range cl.ring.Workers() {
		if cl.health.Ejected(w) && !cl.health.Usable(w, time.Now()) {
			continue
		}
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), cl.opts.CheckTimeout)
			defer cancel()
			start := time.Now()
			if err := cl.transport.Check(ctx, w); err != nil {
				cl.health.ReportFailure(w, time.Now())
			} else {
				cl.health.ReportSuccess(w, time.Since(start), time.Now())
			}
		}(w)
	}
	wg.Wait()
}

// hedgeEligible marks the heavy endpoints: a straggling compare/sweep
// is expensive enough that duplicating it on the successor beats
// waiting, while advise solves are too cheap to be worth hedging.
func hedgeEligible(endpoint string) bool {
	return endpoint == "compare" || endpoint == "sweep"
}

// hedgeDelay is how long a heavy forward waits before hedging: the
// configured fixed delay, or the endpoint's observed solve-latency
// quantile once enough solves have been seen. Zero means "don't
// hedge".
func (s *Server) hedgeDelay(em *endpointMetrics) time.Duration {
	cl := s.cluster
	if cl.opts.HedgeAfter > 0 {
		return cl.opts.HedgeAfter
	}
	h := em.latency[outcomeSolve]
	if h.Count() < int64(cl.opts.HedgeMinObservations) {
		return 0
	}
	d := h.Quantile(cl.opts.HedgeQuantile)
	if d < cl.opts.HedgeFloor {
		d = cl.opts.HedgeFloor
	}
	return d
}

// runForward is the cluster-mode counterpart of runSolve: the solve
// leader forwards the canonical request body to the ring-selected
// worker (with failover and hedging) instead of solving locally, then
// fills the frontend cache and publishes the outcome to the flight
// group. ctx is the solve's deadline context, cancelled by the flight
// group when the last waiter leaves.
func (s *Server) runForward(ctx context.Context, endpoint, label, account, key, cacheKey string, em *endpointMetrics, call *flightCall) {
	s.inflightSolves.Add(1)
	defer s.inflightSolves.Add(-1)
	s.stats.solve()
	out := s.forward(ctx, endpoint, account, key, cacheKey, em)
	// The frontend memoizes exactly what a worker would: successful,
	// non-degraded bodies. Degraded and stale bodies are
	// timing-dependent; sheds and errors have nothing to cache, and
	// nobody is waiting for an abandoned forward's answer.
	if out.err == nil && !out.degraded && !out.shed && len(out.body) > 0 && !abandoned(ctx) {
		s.cache.Put(cacheKey, out.body)
	}
	s.flight.finish(cacheKey, call, out)
}

// forward walks the key's ring preference order: the owner first, then
// successors, skipping workers the failure detector has ejected, up to
// the MaxAttempts failover budget. Heavy solves may hedge to the next
// candidate after the hedge delay. When every candidate is down or
// failed, the request degrades: the frontend's stale tier if it holds
// the key, otherwise a shed with Retry-After set to the detector
// cooldown — never a hang, never a raw 5xx.
func (s *Server) forward(ctx context.Context, endpoint, account, body, cacheKey string, em *endpointMetrics) outcome {
	cl := s.cluster
	cands := cl.ring.Prefer(cacheKey, make([]string, 0, cl.ring.Len()))
	bodyBytes := []byte(body)

	attempts := 0
	hedge := time.Duration(0)
	if hedgeEligible(endpoint) {
		hedge = s.hedgeDelay(em)
	}
	for i := 0; i < len(cands) && attempts < cl.opts.MaxAttempts; i++ {
		w := cands[i]
		if !cl.health.Usable(w, time.Now()) {
			continue
		}
		attempts++
		var out outcome
		var failover bool
		if hedge > 0 && attempts == 1 {
			out, failover = s.forwardHedged(ctx, w, cands[i+1:], endpoint, account, bodyBytes, cacheKey, hedge)
		} else {
			out, failover = s.forwardOnce(ctx, w, endpoint, account, bodyBytes, cacheKey)
		}
		if !failover {
			return out
		}
		cl.failovers.Add(1)
	}

	// Every candidate down, ejected, or failed: degrade rather than
	// error. The stale tier is consulted for every endpoint here —
	// unlike admission sheds, where only advise qualifies — because an
	// outdated answer beats no answer when the fleet is gone.
	cl.allDown.Add(1)
	out := outcome{shed: true, retryAfter: cl.health.Cooldown(), shedMsg: "no healthy worker for this request, retry later"}
	if b, ok := s.stale.Get(cacheKey); ok {
		out.body, out.stale = b, true
	}
	return out
}

// forwardOnce sends one attempt to one worker under the per-attempt
// timeout and classifies the result. failover=true means the worker is
// unhealthy (transport failure or 5xx) and the caller should try the
// next candidate; otherwise the outcome is final (success, shed
// passthrough, or client error).
func (s *Server) forwardOnce(ctx context.Context, worker, endpoint, account string, body []byte, cacheKey string) (outcome, bool) {
	cl := s.cluster
	cl.forwards.Add(1)
	actx, cancel := context.WithTimeout(ctx, cl.opts.AttemptTimeout)
	defer cancel()
	start := time.Now()
	rep, err := cl.transport.Forward(actx, worker, "/v1/"+endpoint, account, body)
	lat := time.Since(start)
	if err != nil || rep.Status >= 500 {
		// Transport failure or worker-side 5xx: count against the
		// detector and fail over. (A contained worker panic rides this
		// path too — the successor re-solves, and a deterministic panic
		// is bounded by the failover budget.)
		cl.health.ReportFailure(worker, time.Now())
		return outcome{}, true
	}
	cl.health.ReportSuccess(worker, lat, time.Now())
	switch {
	case rep.Status == http.StatusOK:
		return outcome{body: rep.Body, degraded: rep.Degraded, worker: worker}, false
	case rep.Status == http.StatusTooManyRequests:
		// The owner is alive but refusing work: pass the shed through
		// with the worker's own backoff hint rather than failing over —
		// a loaded fleet does not need the successor loaded too.
		out := outcome{shed: true, retryAfter: rep.RetryAfter, worker: worker}
		if staleEligible(endpoint) {
			if b, ok := s.stale.Get(cacheKey); ok {
				out.body, out.stale = b, true
			}
		}
		return out, false
	default:
		// 4xx: the request itself is bad; retrying elsewhere cannot fix
		// it.
		return outcome{err: errors.New(workerErrorMessage(rep.Body)), worker: worker}, false
	}
}

// forwardHedged races the primary attempt against a delayed hedge to
// the next usable candidate: whichever returns a non-failover result
// first wins, and the loser's context is cancelled on return. Both
// attempts failing is a failover for the caller's loop.
func (s *Server) forwardHedged(ctx context.Context, primary string, successors []string, endpoint, account string, body []byte, cacheKey string, delay time.Duration) (outcome, bool) {
	cl := s.cluster
	type attemptResult struct {
		out      outcome
		failover bool
		hedged   bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, 2)
	launch := func(worker string, hedged bool) {
		go func() {
			out, failover := s.forwardOnce(hctx, worker, endpoint, account, body, cacheKey)
			results <- attemptResult{out, failover, hedged}
		}()
	}
	launch(primary, false)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	pending := 1
	hedgeLaunched := false
	for {
		select {
		case r := <-results:
			pending--
			if !r.failover {
				if r.hedged {
					cl.hedgeWins.Add(1)
				}
				return r.out, false
			}
			if pending == 0 {
				return outcome{}, true
			}
		case <-timer.C:
			if hedgeLaunched {
				continue
			}
			hedgeLaunched = true
			for _, w := range successors {
				if cl.health.Usable(w, time.Now()) {
					cl.hedges.Add(1)
					pending++
					launch(w, true)
					break
				}
			}
		}
	}
}

// Close releases the server's background resources (today: the cluster
// health-check loop). Safe to call on a non-cluster server and safe to
// call twice.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
}
