package shard

import (
	"sort"
	"sync"
	"time"
)

// failThreshold is the consecutive-failure count that ejects a worker.
const failThreshold = 3

// ewmaAlpha weighs a new latency sample in the EWMA /v1/stats reports.
const ewmaAlpha = 0.3

// workerState is one worker's detector state.
type workerState struct {
	consecFails int
	ewma        time.Duration // 0 until the first success
	ejected     bool
	ejectedAt   time.Time
	// probing marks a half-open worker with its single probe slot
	// taken: exactly one request tests a cooling-down worker; everyone
	// else keeps failing over until the probe reports back.
	probing bool
}

// Tracker is the frontend's per-worker failure detector, fed only by
// the frontend's own forwards: failThreshold consecutive failed forwards
// eject a worker; after the cooldown it turns half-open and the next
// forward to it is the single probe that decides between recovery and
// another cooldown round.
//
// The Tracker never reads the clock — callers pass `now` — so detector
// transitions are a pure function of the reported event sequence and
// tests drive it with a synthetic clock.
type Tracker struct {
	cooldown time.Duration

	mu sync.Mutex
	ws map[string]*workerState
}

// NewTracker builds a detector for the worker set whose ejected workers
// stay out for cooldown before their half-open probe. All workers start
// healthy.
func NewTracker(cooldown time.Duration, workers []string) *Tracker {
	t := &Tracker{cooldown: cooldown, ws: make(map[string]*workerState, len(workers))}
	for _, w := range workers {
		t.ws[w] = &workerState{}
	}
	return t
}

func (t *Tracker) state(worker string) *workerState {
	s := t.ws[worker]
	if s == nil {
		s = &workerState{}
		t.ws[worker] = s
	}
	return s
}

// ReportSuccess records a successful request with its observed latency.
// A success resets the failure streak and, for an ejected worker, closes
// the breaker. The latency feeds the EWMA Snapshot reports; it ejects
// nothing.
func (t *Tracker) ReportSuccess(worker string, latency time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(worker)
	s.consecFails = 0
	if s.ewma == 0 {
		s.ewma = latency
	} else {
		// The float64 conversions round each product before the add, so no port
		// fuses them into one multiply-add (scripts/nofma.sh).
		s.ewma = time.Duration(float64(ewmaAlpha*float64(latency)) + float64((1-ewmaAlpha)*float64(s.ewma)))
	}
	s.ejected = false
	s.probing = false
}

// ReportFailure records a failed request. Reaching failThreshold
// consecutive failures ejects the worker; a failed half-open probe
// restarts the cooldown.
func (t *Tracker) ReportFailure(worker string, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(worker)
	s.consecFails++
	if s.probing {
		// The half-open probe failed: back to fully open, fresh cooldown.
		s.probing = false
		s.ejectedAt = now
		return
	}
	if !s.ejected && s.consecFails >= failThreshold {
		s.ejected = true
		s.ejectedAt = now
	}
}

// ReportAbandoned records a request that ended for its own reasons — its
// client left, or its deadline passed — before the worker answered. That
// says nothing about the worker, so the failure streak stays as it is;
// but a half-open probe slot the request held is freed, and the next
// forward probes in its place.
func (t *Tracker) ReportAbandoned(worker string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(worker).probing = false
}

// Usable reports whether the frontend may route a request to worker
// right now. A healthy worker is always usable. An ejected worker is
// unusable until its cooldown elapses; then the first Usable call takes
// the single half-open probe slot (returning true), and subsequent
// calls return false until ReportSuccess, ReportFailure or
// ReportAbandoned settles the probe.
func (t *Tracker) Usable(worker string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(worker)
	if !s.ejected {
		return true
	}
	if s.probing {
		return false
	}
	if now.Sub(s.ejectedAt) >= t.cooldown {
		s.probing = true
		return true
	}
	return false
}

// Cooldown is the ejection cooldown — frontends surface it as
// Retry-After when every candidate for a key is down.
func (t *Tracker) Cooldown() time.Duration { return t.cooldown }

// WorkerHealth is one worker's externally visible detector state.
type WorkerHealth struct {
	Worker      string        `json:"worker"`
	Ejected     bool          `json:"ejected"`
	Probing     bool          `json:"probing,omitempty"`
	ConsecFails int           `json:"consec_fails,omitempty"`
	EWMA        time.Duration `json:"ewma_ns,omitempty"`
}

// Snapshot returns every tracked worker's state, sorted by worker ID
// for deterministic rendering in /v1/stats. The map range only fills a
// keyed slot per worker (order-insensitive); the ordering comes from
// the sorted key pass.
func (t *Tracker) Snapshot() []WorkerHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]WorkerHealth, len(t.ws))
	i := 0
	for w := range t.ws {
		out[i] = WorkerHealth{Worker: w}
		i++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	for i := range out {
		s := t.ws[out[i].Worker]
		out[i].Ejected, out[i].Probing = s.ejected, s.probing
		out[i].ConsecFails, out[i].EWMA = s.consecFails, s.ewma
	}
	return out
}
