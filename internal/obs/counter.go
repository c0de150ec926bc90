package obs

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the shard count of a Counter. Power of two so the
// shard pick is a mask, sized so a handful of busy cores rarely collide.
const counterShards = 16

// counterShard is one cache-line-padded slot of a sharded counter. The
// padding keeps two shards from sharing a line, so concurrent writers
// on different shards never invalidate each other's caches.
type counterShard struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. Increments are
// a single atomic add on one of counterShards cache-line-padded slots —
// no locks, no allocation — so a counter can sit on the zero-alloc
// cache-hit path or inside a solver's inner loop. Reads sum the shards
// and are not a consistent snapshot across concurrent writers (fine for
// telemetry; each individual add is never lost).
type Counter struct {
	shards [counterShards]counterShard
}

// shardIndex disperses goroutines across shards using the address of a
// stack slot: distinct goroutines run on distinct stacks, so the high
// bits differ, while one goroutine keeps hitting the same (cache-warm)
// shard. The pointer is consumed immediately as an integer, so the probe
// never escapes and the pick costs a shift and a mask.
//
//mvlint:hotpath
func shardIndex() int {
	var probe byte
	return int(uintptr(unsafe.Pointer(&probe))>>11) & (counterShards - 1)
}

// Add increments the counter by n (n must be non-negative; counters are
// monotonic by contract).
//
//mvlint:hotpath
func (c *Counter) Add(n int64) {
	c.shards[shardIndex()].n.Add(n)
}

// Inc increments the counter by one.
//
//mvlint:hotpath
func (c *Counter) Inc() {
	c.shards[shardIndex()].n.Add(1)
}

// Value sums the shards.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous integer value (in-flight requests, queue
// depths). A single atomic is enough: gauges move at request rate, not
// inner-loop rate.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrement).
//
//mvlint:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }
