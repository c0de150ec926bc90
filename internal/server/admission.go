package server

import (
	"context"
	"sync/atomic"
	"time"

	"vmcloud/internal/obs"
)

// admission is one endpoint class's bounded solve queue plus worker
// pool — the backpressure layer that keeps a flood of heavy solves from
// starving cheap ones. The server runs two classes: "cheap" (advise)
// and "heavy" (compare + sweep), each with its own pool, so the classes
// cannot contend for workers at all.
//
// Only solve leaders pass through admission: cache hits and coalesced
// followers ride the existing fast paths untouched. A leader is
// admitted when the class backlog (admitted, not yet finished solves)
// is under queue+workers AND the estimated wait — backlog × observed
// mean solve latency ÷ workers — fits inside the request deadline.
// Otherwise the request is shed with 429 and a Retry-After derived from
// that same estimate.
type admission struct {
	workers int
	queue   int
	// sem holds the worker slots; acquiring blocks until a slot frees or
	// the solve's context dies.
	sem chan struct{}
	// backlog counts solves admitted and not yet finished (queued +
	// running).
	backlog atomic.Int64
	// lat are the class endpoints' solve-latency histograms
	// (mvcloud_http_request_duration_seconds{outcome="solve"|"degraded"},
	// added by newEndpoint); their Sum/Count is the observed mean solve
	// latency feeding the wait estimate and Retry-After.
	lat []*obs.Histogram
}

func newAdmission(workers, queue int) *admission {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &admission{
		workers: workers,
		queue:   queue,
		sem:     make(chan struct{}, workers),
	}
}

// meanSolve is the observed mean solve latency of the class, zero until
// the first solve completes.
func (a *admission) meanSolve() time.Duration {
	var n int64
	var sum time.Duration
	for _, h := range a.lat {
		n += h.Count()
		sum += h.Sum()
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// estWait estimates how long a solve admitted behind `backlog` others
// would wait before finishing: backlog solves spread over the worker
// pool at the observed mean latency. Zero while no latency has been
// observed yet (a cold class never sheds on the estimate).
func (a *admission) estWait(backlog int64) time.Duration {
	mean := a.meanSolve()
	if mean <= 0 || backlog <= 0 {
		return 0
	}
	return time.Duration(backlog) * mean / time.Duration(a.workers)
}

// admit decides one leader's fate. ok means the solve was enqueued (the
// caller must acquire a worker slot and eventually release it). When
// shedding, retryAfter is how long the caller should tell the client to
// back off: the estimated drain time of the current backlog, clamped to
// [1s, 60s].
func (a *admission) admit(deadline time.Duration) (ok bool, retryAfter time.Duration) {
	backlog := a.backlog.Add(1)
	full := backlog > int64(a.workers+a.queue)
	wait := a.estWait(backlog)
	if full || (deadline > 0 && wait > deadline) {
		a.backlog.Add(-1)
		retry := wait
		if retry < time.Second {
			retry = time.Second
		}
		if retry > time.Minute {
			retry = time.Minute
		}
		return false, retry
	}
	return true, 0
}

// acquire blocks until a worker slot frees or ctx dies; it reports
// whether a slot was obtained. On false the solve was abandoned while
// queued and the caller must not run it (the backlog entry is already
// released).
func (a *admission) acquire(ctx context.Context) bool {
	// An already-dead context never gets a slot, even if one is free —
	// keeps the abandoned-solve path deterministic instead of racing the
	// select below. Err, not Done: a free slot is taken without asking
	// the context for a channel (a solve's context makes its channel and
	// arms its deadline timer only when something waits on it).
	if ctx.Err() != nil {
		a.backlog.Add(-1)
		return false
	}
	select {
	case a.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case a.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		a.backlog.Add(-1)
		return false
	}
}

// release frees the worker slot and the backlog entry after a solve.
func (a *admission) release() {
	<-a.sem
	a.backlog.Add(-1)
}
