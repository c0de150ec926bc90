package server

import (
	"context"
	"hash/fnv"
	"time"
)

// ChaosConfig is the fault-injection harness: a deterministic chaos
// layer wrapped around the solve path, used by the overload and
// race-mode e2e tests (e2e_test.go) to exercise degradation, shedding,
// and panic containment without depending on real machine load. All
// decisions are pure functions of (Seed, site, cache key), so a given
// request either always or never gets a given fault regardless of
// goroutine scheduling — runs are reproducible and assertions can be
// exact.
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
	// WorkerKillProb is the probability a cluster worker starts dead
	// (keyed per worker ID, not per request): its transport refuses
	// every forward with an immediate connection-reset-style error
	// until the worker is revived. Exercises failover and health
	// ejection.
	WorkerKillProb float64
	// PartitionProb is the probability a cluster worker starts
	// partitioned (keyed per worker ID): forwards to it hang until the
	// attempt deadline instead of failing fast — the nastier fault,
	// since only timeouts reveal it.
	PartitionProb float64
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
	if c == nil || c.LatencyProb <= 0 || c.Latency <= 0 {
		return
	}
	if c.roll("latency", key) >= c.LatencyProb {
		return
	}
	t := time.NewTimer(c.Latency)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// killsWorker reports whether the seed selects worker id to start
// dead. Keyed by worker, not request: a killed worker fails every
// forward, exactly like a crashed process.
func (c *ChaosConfig) killsWorker(id string) bool {
	if c == nil || c.WorkerKillProb <= 0 {
		return false
	}
	return c.roll("worker-kill", id) < c.WorkerKillProb
}

// partitionsWorker reports whether the seed selects worker id to start
// network-partitioned (forwards hang rather than fail fast).
func (c *ChaosConfig) partitionsWorker(id string) bool {
	if c == nil || c.PartitionProb <= 0 {
		return false
	}
	return c.roll("partition", id) < c.PartitionProb
}

// panics reports whether the seed selects this key for an injected
// solver panic. The caller raises the panic inside its recovered
// region, so containment — not the injection itself — is what gets
// tested.
func (c *ChaosConfig) panics(key string) bool {
	if c == nil || c.PanicProb <= 0 {
		return false
	}
	return c.roll("panic", key) < c.PanicProb
}
