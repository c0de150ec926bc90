// Package shard is the cluster-mode placement and failure-detection
// kernel: a rendezvous (highest-random-weight) hash ring assigning
// canonical cache keys to workers, and a health tracker deciding which
// workers a frontend may route to.
//
// Rendezvous hashing was chosen over a token ring because its remap
// property is exact rather than probabilistic: a key's owner changes
// only when its owner leaves the worker set, so losing one of N workers
// remaps exactly the ~1/N of the keyspace that worker owned — every
// other worker's cache, kernel sessions and pools stay hot for "their"
// problems. The ring is deterministic and seedable: two frontends built
// with the same seed and worker set route every key identically, which
// is what lets a fleet of stateless frontends share a worker tier
// without coordination.
//
// The package is in mvlint's determinism scope: nothing here reads the
// clock or global randomness. The health tracker takes explicit `now`
// timestamps from its caller, so its state transitions are pure
// functions of the reported events.
package shard

import (
	"fmt"
	"sort"
)

// Ring assigns keys to a fixed worker set by rendezvous hashing. A Ring
// is immutable after New: membership changes build a new Ring (they are
// rare next to routing decisions, and immutability keeps Owner safe for
// concurrent use with zero locking).
type Ring struct {
	seed uint64
	// workers is the sorted member list; wh[i] is the precomputed
	// per-worker hash mixed into every key score.
	workers []string
	wh      []uint64
}

// New builds a ring over the worker IDs. IDs must be non-empty and
// distinct; order does not matter (the ring sorts them, so two
// frontends given the same set in different orders agree).
func New(seed int64, workers []string) (*Ring, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("shard: empty worker set")
	}
	sorted := make([]string, len(workers))
	copy(sorted, workers)
	sort.Strings(sorted)
	r := &Ring{seed: uint64(seed), workers: sorted, wh: make([]uint64, len(sorted))}
	for i, w := range sorted {
		if w == "" {
			return nil, fmt.Errorf("shard: empty worker id")
		}
		if i > 0 && sorted[i-1] == w {
			return nil, fmt.Errorf("shard: duplicate worker id %q", w)
		}
		r.wh[i] = hashString(r.seed, w)
	}
	return r, nil
}

// Workers returns the sorted member list (shared, read-only).
func (r *Ring) Workers() []string { return r.workers }

// Len is the member count.
func (r *Ring) Len() int { return len(r.workers) }

// fnv1aOffset/fnv1aPrime are the 64-bit FNV-1a parameters.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// hashString is FNV-1a over s, seeded.
func hashString(seed uint64, s string) uint64 {
	h := fnv1aOffset ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv1aPrime
	}
	return h
}

// mix finishes a (worker, key) score from the two hashes. The
// final avalanche (splitmix64's finalizer) decorrelates scores across
// workers, so per-key preference orders are uniform.
func mix(wh, kh uint64) uint64 {
	x := wh ^ kh
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the worker with the highest score for key — the key's
// home, where its cache entry, kernel session and pools live. Ties
// (astronomically unlikely at 64 bits) break toward the
// lexicographically smaller worker, so the answer is total.
//
//mvlint:hotpath
func (r *Ring) Owner(key string) string {
	kh := hashString(r.seed, key)
	best := 0
	bestScore := mix(r.wh[0], kh)
	for i := 1; i < len(r.wh); i++ {
		if s := mix(r.wh[i], kh); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.workers[best]
}

// Prefer appends every worker to buf in descending score order for key:
// buf[0] is the owner, buf[1] the first failover successor, and so on.
// The preference order is stable across frontends (same seed, same
// set), so two frontends failing over for one key converge on the same
// successor — the successor's cache warms instead of scattering.
func (r *Ring) Prefer(key string, buf []string) []string {
	kh := hashString(r.seed, key)
	type scored struct {
		i int
		s uint64
	}
	sc := make([]scored, len(r.wh))
	for i := range r.wh {
		sc[i] = scored{i, mix(r.wh[i], kh)}
	}
	sort.Slice(sc, func(a, b int) bool {
		if sc[a].s != sc[b].s {
			return sc[a].s > sc[b].s
		}
		return sc[a].i < sc[b].i
	})
	buf = buf[:0]
	for _, s := range sc {
		buf = append(buf, r.workers[s.i])
	}
	return buf
}
