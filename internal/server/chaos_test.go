package server

import (
	"context"
	"hash/fnv"
	"time"
)

// ChaosConfig is the fault-injection harness: a deterministic chaos
// layer a test installs as a server's pre-solve hook (withChaos), used
// by the overload and race-mode e2e tests (e2e_test.go) to exercise
// degradation, shedding, and panic containment without depending on
// real machine load. All decisions are pure functions of (Seed, site,
// cache key), so a given request either always or never gets a given
// fault regardless of goroutine scheduling — runs are reproducible and
// assertions can be exact. A cluster frontend forwards every solve, so
// only its workers' chaos injects anything; worker kills and partitions
// are MemTransport's.
type ChaosConfig struct {
	// Seed selects the fault pattern; two servers with the same seed and
	// probabilities inject faults on exactly the same request keys.
	Seed int64
	// LatencyProb is the probability a solve sleeps Latency before
	// running (deadline pressure: with a short RequestTimeout this forces
	// degraded responses and queue buildup).
	LatencyProb float64
	// Latency is the injected sleep; it respects the solve context, so a
	// cancelled solve does not linger in the sleep.
	Latency time.Duration
	// PanicProb is the probability a solve panics inside the recovered
	// region (exercising panic containment end to end).
	PanicProb float64
}

// withChaos installs c as s's pre-solve hook and returns s. Install it
// before s serves its first request.
func withChaos(s *Server, c ChaosConfig) *Server {
	s.beforeSolve = c.inject
	return s
}

// withWorkerChaos installs c on every worker of lc and returns lc.
func withWorkerChaos(lc *LocalCluster, c ChaosConfig) *LocalCluster {
	for _, w := range lc.Workers {
		withChaos(w, c)
	}
	return lc
}

// inject is the pre-solve hook: the latency, then the panic, for the
// keys the seed selects. The server calls it inside the leader's
// recovered region, so containment — not the injection itself — is what
// gets tested.
func (c *ChaosConfig) inject(ctx context.Context, key string) {
	c.sleep(ctx, key)
	if c.PanicProb > 0 && c.roll("panic", key) < c.PanicProb {
		panic("chaos: injected solver panic")
	}
}

// roll maps (seed, site, key) to [0, 1) via FNV-1a. site keeps the
// latency and panic decisions for one key independent of each other.
func (c *ChaosConfig) roll(site string, key string) float64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(c.Seed >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(site))
	h.Write([]byte(key))
	// 53 bits of hash → exactly representable float64 in [0, 1).
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// sleep injects the configured latency for keys the seed selects,
// returning early if the solve context dies first.
func (c *ChaosConfig) sleep(ctx context.Context, key string) {
	if c.LatencyProb <= 0 || c.Latency <= 0 || c.roll("latency", key) >= c.LatencyProb {
		return
	}
	t := time.NewTimer(c.Latency)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
