package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"vmcloud/internal/obs"
	"vmcloud/internal/shard"
)

// maxAttempts bounds the failover budget per request: the owner plus
// one ring successor.
const maxAttempts = 2

// ejectCooldown is how long an ejected worker stays out before the next
// forward to it probes it half-open.
const ejectCooldown = 2 * time.Second

// clusterState is the frontend's routing plane: the ring, the failure
// detector, and the fan-out counters.
type clusterState struct {
	ring      *shard.Ring
	health    *shard.Tracker
	transport *MemTransport
	// attemptTimeout bounds one forwarded attempt: half the frontend's
	// RequestTimeout.
	attemptTimeout time.Duration

	// forwards/failovers count routing decisions: attempts sent, and
	// attempts that fell over to a successor.
	forwards  atomic.Int64
	failovers atomic.Int64
	// allDown counts requests whose every candidate was unusable or
	// failed — shed with the detector's cooldown as their backoff.
	allDown atomic.Int64
}

// newClusterState builds the routing plane over the named workers.
func newClusterState(seed int64, workers []string, transport *MemTransport, attemptTimeout time.Duration) *clusterState {
	ring, err := shard.New(seed, workers)
	if err != nil {
		// NewLocalCluster names its workers worker-0 … worker-(n-1) with
		// n ≥ 1: never an empty set, an empty ID or a repeat.
		panic("server: " + err.Error())
	}
	return &clusterState{
		ring:           ring,
		health:         shard.NewTracker(ejectCooldown, ring.Workers()),
		transport:      transport,
		attemptTimeout: attemptTimeout,
	}
}

// registerClusterMetrics exposes the routing plane on /metrics.
func (cl *clusterState) registerClusterMetrics(reg *obs.Registry) {
	reg.CounterFunc("mvcloud_cluster_forwards_total", "Solve attempts forwarded to workers.",
		func() float64 { return float64(cl.forwards.Load()) })
	reg.CounterFunc("mvcloud_cluster_failovers_total", "Forwarded attempts that failed over to a ring successor.",
		func() float64 { return float64(cl.failovers.Load()) })
	reg.CounterFunc("mvcloud_cluster_all_down_total", "Requests whose every ring candidate was down (shed).",
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
	AllDown   int64                `json:"all_down"`
}

func (cl *clusterState) statsJSON() *clusterStatsJSON {
	return &clusterStatsJSON{
		Workers:   cl.health.Snapshot(),
		Forwards:  cl.forwards.Load(),
		Failovers: cl.failovers.Load(),
		AllDown:   cl.allDown.Load(),
	}
}

// runForward is the cluster-mode counterpart of runSolve: the leader
// forwards the canonical request body to the ring-selected worker (with
// failover) instead of solving locally, and fills the frontend cache.
// ctx is the solve's deadline context, cancelled by the flight group
// when the last waiter leaves.
func (s *Server) runForward(ctx context.Context, e *endpoint, account, key, cacheKey string) outcome {
	s.m.solves.Inc()
	return s.fill(ctx, cacheKey, s.forward(ctx, e, account, key, cacheKey))
}

// forward walks the key's ring preference order: the owner first, then
// successors, skipping workers the failure detector has ejected, up to
// the maxAttempts failover budget. When every candidate is down or
// failed, or the request deadline passes with waiters still there, the
// request is shed with Retry-After set to the detector cooldown — never
// a hang, never a raw 5xx. An answer the frontend holds never gets here:
// it is a hit before any forward.
func (s *Server) forward(ctx context.Context, e *endpoint, account, body, cacheKey string) outcome {
	cl := s.cluster
	cands := cl.ring.Prefer(cacheKey, make([]string, 0, cl.ring.Len()))
	bodyBytes := []byte(body)

	attempts := 0
	for i := 0; i < len(cands) && attempts < maxAttempts; i++ {
		w := cands[i]
		if !cl.health.Usable(w, time.Now()) {
			continue
		}
		attempts++
		out, failover := s.forwardOnce(ctx, w, e, account, bodyBytes)
		if !failover {
			return out
		}
		if ctx.Err() != nil {
			// The request deadline passed: a successor would get the same
			// dead context, so degrade now.
			break
		}
		cl.failovers.Add(1)
	}

	// Every candidate down, ejected, or failed, or the deadline gone:
	// shed rather than error.
	cl.allDown.Add(1)
	return outcome{shed: true, retryAfter: cl.health.Cooldown(), shedMsg: "no healthy worker for this request, retry later"}
}

// forwardOnce sends one attempt to one worker under the per-attempt
// timeout and classifies the result. failover=true means the attempt
// produced no answer: the worker is unhealthy (transport failure,
// per-attempt timeout or 5xx) and the caller should try the next
// candidate, or the request deadline passed and the caller should
// degrade. Otherwise the outcome is final (success, shed passthrough,
// client error, or the solve abandoned by its last waiter).
func (s *Server) forwardOnce(ctx context.Context, worker string, e *endpoint, account string, body []byte) (outcome, bool) {
	cl := s.cluster
	cl.forwards.Add(1)
	actx, cancel := context.WithTimeout(ctx, cl.attemptTimeout)
	defer cancel()
	start := time.Now()
	rep, err := cl.transport.Forward(actx, worker, "/v1/"+e.name, account, body)
	lat := time.Since(start)
	if err != nil || rep.Status >= 500 {
		if ctx.Err() != nil {
			// The solve itself is over — its last waiter left, or the
			// request deadline passed — so the failure says nothing about
			// the worker. The detector only frees the half-open probe slot
			// this forward may hold. An abandoned solve has nobody to
			// answer; a deadline still has waiters, who get forward's
			// shed.
			cl.health.ReportAbandoned(worker)
			if abandoned(ctx) {
				return outcome{err: ctx.Err()}, false
			}
			return outcome{}, true
		}
		// Transport failure or worker-side 5xx: count against the
		// detector and fail over. (A contained worker panic rides this
		// path too — the successor re-solves, and a deterministic panic
		// is bounded by the failover budget.)
		cl.health.ReportFailure(worker, time.Now())
		return outcome{}, true
	}
	cl.health.ReportSuccess(worker, lat)
	switch {
	case rep.Status == http.StatusOK:
		return outcome{body: rep.Body, degraded: rep.Degraded, worker: worker}, false
	case rep.Status == http.StatusTooManyRequests:
		// The owner is alive but refusing work: pass the shed through
		// with the worker's own backoff hint rather than failing over —
		// a loaded fleet does not need the successor loaded too.
		return outcome{shed: true, retryAfter: rep.RetryAfter, worker: worker}, false
	default:
		// 4xx: the request itself is bad; retrying elsewhere cannot fix
		// it.
		return outcome{err: errors.New(workerErrorMessage(rep.Body)), worker: worker}, false
	}
}

// Close releases nothing: a server starts no background goroutine. It
// stays so that callers which defer it need not know that.
func (s *Server) Close() {}
