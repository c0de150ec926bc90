package obs

import "time"

// Observe accumulates an already-measured duration into phase p, so tests
// can pin exact phase durations.
func (t *Trace) Observe(p Phase, d time.Duration) {
	if t != nil {
		t.durs[p].Add(int64(d))
	}
}
