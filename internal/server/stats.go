package server

import "time"

// GET /v1/stats is a view, not a store: every number in it is read, at
// request time, from the obs instruments the request path adds to (or,
// for occupancy, from the caches themselves), so it cannot disagree with
// /metrics. TestStatsMatchesMetrics holds each field to the sample it is
// read from.

// statsJSON is the wire form of the counters.
type statsJSON struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      int64            `json:"requests"`
	ByEndpoint    map[string]int64 `json:"by_endpoint"`
	Advise        adviseStatsJSON  `json:"advise"`
	Cache         cacheStatsJSON   `json:"cache"`
	// Caches breaks the shared memoization caches down per endpoint:
	// resident response/raw-key entries and bytes plus hit/miss counts.
	Caches map[string]endpointCacheJSON `json:"caches"`
	// Tenants counts requests per account namespace (absent when no
	// tenant-scoped request has been seen, keeping default responses
	// byte-identical to earlier versions).
	Tenants map[string]int64 `json:"tenants,omitempty"`
	// Cluster is the frontend routing plane (cluster mode only).
	Cluster *clusterStatsJSON `json:"cluster,omitempty"`
}

// endpointCacheJSON is one endpoint's slice of the memoization caches.
type endpointCacheJSON struct {
	// Entries/Bytes cover the canonical-key response cache.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// RawEntries/RawBytes cover the raw-body fast-path key cache.
	RawEntries int   `json:"raw_entries"`
	RawBytes   int64 `json:"raw_bytes"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	// Coalesced counts requests served by joining another request's
	// in-flight solve (singleflight stampede suppression).
	Coalesced int64 `json:"coalesced"`
}

type adviseStatsJSON struct {
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Coalesced requests joined an in-flight identical solve; Solves is
	// how many solves actually executed (misses ≥ solves when requests
	// coalesce; a K-way stampede is 1 miss + K-1 coalesced + 1 solve).
	Coalesced int64 `json:"coalesced"`
	Solves    int64 `json:"solves"`
	Errors    int64 `json:"errors"`
	// Shed/Degraded/Panics are the overload outcomes: 429s from
	// admission control, deadline-degraded responses, and contained
	// solver panics.
	Shed       int64            `json:"shed"`
	Degraded   int64            `json:"degraded"`
	Panics     int64            `json:"panics"`
	ByScenario map[string]int64 `json:"by_scenario"`
}

type cacheStatsJSON struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Bytes    int64 `json:"bytes"`
}

// statsSnapshot renders the counters. A map key appears once its count
// is non-zero, as when the maps were the store.
func (s *Server) statsSnapshot(now time.Time) statsJSON {
	snap := statsJSON{
		UptimeSeconds: now.Sub(s.start).Seconds(),
		ByEndpoint:    make(map[string]int64),
		Advise:        adviseStatsJSON{Solves: s.m.solves.Value(), ByScenario: make(map[string]int64)},
		Cache: cacheStatsJSON{Entries: s.cache.Len(), Capacity: s.cache.Cap(),
			Bytes: s.cache.Bytes() + s.rawKeys.Bytes()},
		Caches:  make(map[string]endpointCacheJSON),
		Tenants: s.tenants.counts(),
	}
	for _, rc := range s.m.received {
		if n := rc.n.Value(); n > 0 {
			snap.ByEndpoint[rc.name] = n
			snap.Requests += n
		}
	}
	for i, c := range s.m.scenarios {
		if n := c.Value(); n > 0 {
			snap.Advise.ByScenario[knownLabels[i]] = n
		}
	}
	for ns, st := range s.cache.NamespaceStats() {
		c := snap.Caches[ns]
		c.Entries, c.Bytes = st.Entries, st.Bytes
		snap.Caches[ns] = c
	}
	for ns, st := range s.rawKeys.NamespaceStats() {
		c := snap.Caches[ns]
		c.RawEntries, c.RawBytes = st.Entries, st.Bytes
		snap.Caches[ns] = c
	}
	a := &snap.Advise
	for _, e := range s.endpoints {
		var n [numOutcomes]int64
		for o := range n {
			n[o] = e.requests[o].Value()
		}
		// A leader's answer is a miss whether or not the deadline degraded
		// it, and a contained panic is also an error.
		hits, misses, coalesced := n[outcomeHit], n[outcomeSolve]+n[outcomeDegraded], n[outcomeCoalesced]
		if hits+misses+coalesced > 0 {
			c := snap.Caches[e.name]
			c.Hits, c.Misses, c.Coalesced = hits, misses, coalesced
			snap.Caches[e.name] = c
		}
		a.CacheHits += hits
		a.CacheMisses += misses
		a.Coalesced += coalesced
		a.Errors += n[outcomeError] + n[outcomePanic]
		a.Shed += n[outcomeShed]
		a.Degraded += n[outcomeDegraded]
		a.Panics += n[outcomePanic]
	}
	if s.cluster != nil {
		snap.Cluster = s.cluster.statsJSON()
	}
	return snap
}
