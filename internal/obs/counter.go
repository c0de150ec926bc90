package obs

import "sync/atomic"

// Counter is a monotonically increasing counter. An increment is one
// atomic add — no locks, no allocation — so a counter can sit on the
// zero-alloc cache-hit path or inside a solver's inner loop.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by n (n must be non-negative; counters are
// monotonic by contract).
//
//mvlint:hotpath
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc increments the counter by one.
//
//mvlint:hotpath
func (c *Counter) Inc() { c.n.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous integer value (in-flight requests, queue
// depths): one atomic, as a Counter is.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrement).
//
//mvlint:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }
