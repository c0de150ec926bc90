package obs

import (
	"sync/atomic"
	"time"
)

// DefLatencyBuckets is the default latency histogram layout: roughly
// 1-2.5-5 per decade from 10µs (an in-process cache hit costs a few µs)
// to 10s (a worst-case cold sweep under the 30s request timeout).
// Observations above the last bound land in the implicit +Inf bucket.
var DefLatencyBuckets = []time.Duration{
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. The bucket layout is
// frozen at registration; observing is a short linear scan over the
// bounds plus two atomic adds — no locks, no allocation — so a histogram
// can record the cache-hit path without breaking its alloc budget.
// Buckets hold per-bucket (non-cumulative) counts; the Prometheus
// exposition accumulates them into the cumulative `le` form.
type Histogram struct {
	// bounds are the inclusive upper bounds, ascending, excluding the
	// implicit +Inf bucket.
	bounds []time.Duration
	// counts[i] is the number of observations in (bounds[i-1], bounds[i]];
	// counts[len(bounds)] is the +Inf bucket.
	counts []atomic.Int64
	// sum is the total observed duration in nanoseconds.
	sum atomic.Int64
}

func newHistogram(bounds []time.Duration) *Histogram {
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration. Negative durations (clock weirdness)
// count as zero.
//
//mvlint:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// Count is the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum is the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// snapshot reads the per-bucket counts (not cumulative). Not a
// consistent cut across concurrent observers — fine for exposition.
func (h *Histogram) snapshot(buf []int64) []int64 {
	buf = buf[:0]
	for i := range h.counts {
		buf = append(buf, h.counts[i].Load())
	}
	return buf
}
