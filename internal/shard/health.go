package shard

import (
	"sort"
	"sync"
	"time"
)

// HealthConfig tunes the failure detector. Zero values take defaults.
type HealthConfig struct {
	// FailThreshold is the consecutive-failure count that ejects a
	// worker (default 3).
	FailThreshold int
	// EjectLatency ejects a worker whose latency EWMA exceeds it — a
	// node that answers, but so slowly it drags the fleet (0 disables).
	EjectLatency time.Duration
	// EWMAAlpha is the smoothing factor for the latency EWMA in (0,1];
	// default 0.3 (new samples weigh 30%).
	EWMAAlpha float64
	// Cooldown is how long an ejected worker stays out before it may be
	// probed half-open (default 2s).
	Cooldown time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

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

// Tracker is the frontend's per-worker failure detector: consecutive
// request failures or a latency EWMA over the ceiling eject a worker;
// after a cooldown it turns half-open and a single probe request
// decides between recovery and another cooldown round.
//
// The Tracker never reads the clock — callers pass `now` — so detector
// transitions are a pure function of the reported event sequence and
// tests drive it with a synthetic clock.
type Tracker struct {
	cfg HealthConfig

	mu sync.Mutex
	ws map[string]*workerState
}

// NewTracker builds a detector for the worker set. All workers start
// healthy.
func NewTracker(cfg HealthConfig, workers []string) *Tracker {
	t := &Tracker{cfg: cfg.withDefaults(), ws: make(map[string]*workerState, len(workers))}
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

// ReportSuccess records a successful request (or health probe) with its
// observed latency. A success resets the failure streak and, for an
// ejected worker, closes the breaker — unless the latency EWMA is still
// over the ceiling, in which case the worker stays out (slow is a
// failure mode, not a recovery).
func (t *Tracker) ReportSuccess(worker string, latency time.Duration, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(worker)
	s.consecFails = 0
	if s.ewma == 0 {
		s.ewma = latency
	} else {
		a := t.cfg.EWMAAlpha
		// The float64 conversions round each product before the add, so no port
		// fuses them into one multiply-add (scripts/nofma.sh).
		s.ewma = time.Duration(float64(a*float64(latency)) + float64((1-a)*float64(s.ewma)))
	}
	if t.cfg.EjectLatency > 0 && s.ewma > t.cfg.EjectLatency {
		if !s.ejected {
			s.ejected = true
			s.ejectedAt = now
		} else {
			// Still too slow: restart the cooldown so the next probe
			// waits a full window.
			s.ejectedAt = now
		}
		s.probing = false
		return
	}
	s.ejected = false
	s.probing = false
}

// ReportFailure records a failed request or probe. Reaching the
// consecutive-failure threshold ejects the worker; a failed half-open
// probe restarts the cooldown.
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
	if !s.ejected && s.consecFails >= t.cfg.FailThreshold {
		s.ejected = true
		s.ejectedAt = now
	}
}

// Usable reports whether the frontend may route a request to worker
// right now. A healthy worker is always usable. An ejected worker is
// unusable until its cooldown elapses; then the first Usable call takes
// the single half-open probe slot (returning true), and subsequent
// calls return false until ReportSuccess or ReportFailure settles the
// probe.
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
	if now.Sub(s.ejectedAt) >= t.cfg.Cooldown {
		s.probing = true
		return true
	}
	return false
}

// Ejected reports whether worker is currently ejected (half-open
// counts as ejected until a probe succeeds).
func (t *Tracker) Ejected(worker string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state(worker).ejected
}

// Cooldown is the configured ejection cooldown — frontends surface it
// as Retry-After when every candidate for a key is down.
func (t *Tracker) Cooldown() time.Duration { return t.cfg.Cooldown }

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
