package shard

import (
	"fmt"
	"testing"
)

// Without builds the ring that remains after removing worker id.
func (r *Ring) Without(id string) (*Ring, error) {
	rest := make([]string, 0, len(r.workers))
	for _, w := range r.workers {
		if w != id {
			rest = append(rest, w)
		}
	}
	if len(rest) == len(r.workers) {
		return nil, fmt.Errorf("shard: worker %q not in ring", id)
	}
	return New(int64(r.seed), rest)
}

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("advise\x00{\"budget\":%d,\"scenario\":\"mv%d\"}", i, i%3+1)
	}
	return keys
}

func TestRingValidation(t *testing.T) {
	if _, err := New(1, nil); err == nil {
		t.Fatal("empty worker set accepted")
	}
	if _, err := New(1, []string{"a", ""}); err == nil {
		t.Fatal("empty worker id accepted")
	}
	if _, err := New(1, []string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate worker id accepted")
	}
}

func TestRingDeterministicAcrossOrderAndInstances(t *testing.T) {
	a, err := New(42, []string{"w0", "w1", "w2", "w3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(42, []string{"w3", "w1", "w0", "w2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sampleKeys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner disagrees for %q: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}

func TestRingSeedSensitivity(t *testing.T) {
	a, _ := New(1, []string{"w0", "w1", "w2", "w3"})
	b, _ := New(2, []string{"w0", "w1", "w2", "w3"})
	diff := 0
	keys := sampleKeys(1000)
	for _, k := range keys {
		if a.Owner(k) != b.Owner(k) {
			diff++
		}
	}
	// With 4 workers, independent seeds should disagree on ~3/4 of keys.
	if diff < len(keys)/2 {
		t.Fatalf("seeds 1 and 2 agree on %d/%d keys; placement not seed-sensitive", len(keys)-diff, len(keys))
	}
}

func TestRingBalance(t *testing.T) {
	const n = 8
	workers := make([]string, n)
	for i := range workers {
		workers[i] = fmt.Sprintf("worker-%d", i)
	}
	r, _ := New(123, workers)
	counts := make(map[string]int, n)
	keys := sampleKeys(10_000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	// Every worker should own within 2x of the fair share in either
	// direction — a loose bound that still catches a broken mixer.
	fair := len(keys) / n
	for w, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("%s owns %d keys (fair share %d)", w, c, fair)
		}
	}
}

// TestRingRemapBound is the acceptance-criterion property: removing one
// of N workers remaps at most 2/N of a 10k-key sample. Rendezvous
// hashing makes this exact — only keys owned by the removed worker move
// — so the pinned bound has 2x headroom over the ~1/N expectation.
func TestRingRemapBound(t *testing.T) {
	keys := sampleKeys(10_000)
	for _, n := range []int{2, 3, 4, 8, 16} {
		workers := make([]string, n)
		for i := range workers {
			workers[i] = fmt.Sprintf("worker-%d", i)
		}
		full, err := New(99, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, victim := range workers {
			reduced, err := full.Without(victim)
			if err != nil {
				t.Fatal(err)
			}
			remapped := 0
			for _, k := range keys {
				before := full.Owner(k)
				after := reduced.Owner(k)
				if before != after {
					remapped++
					if before != victim {
						t.Fatalf("n=%d: key moved from surviving worker %s to %s", n, before, after)
					}
				}
			}
			if limit := 2 * len(keys) / n; remapped > limit {
				t.Errorf("n=%d victim=%s: %d/%d keys remapped, limit %d", n, victim, remapped, len(keys), limit)
			}
		}
	}
}

func TestRingPreferOrder(t *testing.T) {
	workers := []string{"w0", "w1", "w2", "w3", "w4"}
	r, _ := New(5, workers)
	var buf []string
	for _, k := range sampleKeys(500) {
		buf = r.Prefer(k, buf)
		if len(buf) != len(workers) {
			t.Fatalf("Prefer returned %d workers, want %d", len(buf), len(workers))
		}
		if buf[0] != r.Owner(k) {
			t.Fatalf("Prefer[0]=%s but Owner=%s", buf[0], r.Owner(k))
		}
		seen := make(map[string]bool, len(buf))
		for _, w := range buf {
			if seen[w] {
				t.Fatalf("Prefer repeated worker %s", w)
			}
			seen[w] = true
		}
		// The failover successor must match the owner after the primary
		// is removed — this is what keeps two frontends converging on
		// the same successor cache.
		reduced, _ := r.Without(buf[0])
		if got := reduced.Owner(k); got != buf[1] {
			t.Fatalf("Prefer[1]=%s but post-removal owner=%s", buf[1], got)
		}
	}
}

func TestRingWithoutUnknown(t *testing.T) {
	r, _ := New(1, []string{"a", "b"})
	if _, err := r.Without("zzz"); err == nil {
		t.Fatal("Without(unknown) succeeded")
	}
}

func BenchmarkRingOwner(b *testing.B) {
	workers := make([]string, 16)
	for i := range workers {
		workers[i] = fmt.Sprintf("worker-%d", i)
	}
	r, _ := New(1, workers)
	key := "advise\x00{\"budget\":25,\"scenario\":\"mv1\"}"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(key)
	}
}
