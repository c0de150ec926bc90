package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestCacheBasics(t *testing.T) {
	c := newSieveCache(2, 0)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if v, ok := c.Get("a"); !ok || string(v) != "1" {
		t.Errorf("a = %q, %v", v, ok)
	}
	// "a" is visited; inserting "c" passes it and evicts "b".
	c.Put("c", []byte("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite a visit")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := newSieveCache(2, 0)
	c.Put("a", []byte("1"))
	c.Put("a", []byte("one"))
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); string(v) != "one" {
		t.Errorf("a = %q", v)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newSieveCache(capacity, 0)
		c.Put("a", []byte("1"))
		if _, ok := c.Get("a"); ok {
			t.Errorf("cap %d: cache stored an entry", capacity)
		}
		if c.Len() != 0 {
			t.Errorf("cap %d: len = %d", capacity, c.Len())
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newSieveCache(16, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%32)
				c.Put(key, []byte(key))
				if v, ok := c.Get(key); ok && string(v) != key {
					t.Errorf("got %q for %q", v, key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("len = %d exceeds cap", c.Len())
	}
}

// Get must return an unaliased copy: a caller mutating the returned
// slice cannot corrupt what subsequent readers are served.
func TestCacheGetReturnsCopy(t *testing.T) {
	c := newSieveCache(4, 0)
	c.Put("k", []byte("pristine"))
	v1, ok := c.Get("k")
	if !ok {
		t.Fatal("miss")
	}
	for i := range v1 {
		v1[i] = 'X'
	}
	v2, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after mutation")
	}
	if string(v2) != "pristine" {
		t.Errorf("cached value corrupted through returned slice: %q", v2)
	}
}

// Re-Put of an existing key with a different-sized value must keep the
// byte account exact in both directions, and eviction must honour the
// refreshed sizes.
func TestCacheRefreshByteAccounting(t *testing.T) {
	c := newSieveCache(10, 100)
	c.Put("a", []byte("12345")) // 6 bytes
	c.Put("b", []byte("xy"))    // 3 bytes
	if got := c.Bytes(); got != 9 {
		t.Fatalf("initial bytes = %d, want 9", got)
	}
	c.Put("a", []byte("1234567890")) // grow: 6 → 11
	if got := c.Bytes(); got != 14 {
		t.Errorf("after grow bytes = %d, want 14", got)
	}
	c.Put("a", []byte("1")) // shrink: 11 → 2
	if got := c.Bytes(); got != 5 {
		t.Errorf("after shrink bytes = %d, want 5", got)
	}
	if v, _ := c.Get("a"); string(v) != "1" {
		t.Errorf("a = %q after refresh", v)
	}
	// A refresh that pushes the account over the byte bound evicts
	// entries using the refreshed sizes.
	c.Put("b", make([]byte, 98)) // "b"(1) + 98 = 99, + "a"(2) = 101 > 100
	if _, ok := c.Get("a"); ok {
		t.Error("a survived an over-bound refresh of b")
	}
	if got := c.Bytes(); got != 99 {
		t.Errorf("after refresh eviction bytes = %d, want 99", got)
	}
}

func TestCacheByteBound(t *testing.T) {
	c := newSieveCache(100, 10)
	c.Put("a", []byte("123"))  // 4 bytes
	c.Put("b", []byte("4567")) // 5 bytes
	if c.Bytes() != 9 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d", c.Bytes(), c.Len())
	}
	c.Put("c", []byte("89")) // 3 bytes → over 10, evicts "a"
	if _, ok := c.Get("a"); ok {
		t.Error("a survived byte eviction")
	}
	if c.Bytes() != 8 || c.Len() != 2 {
		t.Errorf("after eviction bytes=%d len=%d", c.Bytes(), c.Len())
	}
	// An entry alone exceeding the bound is not cached.
	c.Put("huge", []byte("0123456789ab"))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry cached")
	}
	// Refreshing an entry adjusts the byte account.
	c.Put("b", []byte("4"))
	if c.Bytes() != 5 {
		t.Errorf("after refresh bytes=%d", c.Bytes())
	}
}

// recordEvictions returns a pointer to the list of keys c's onEvict sees,
// in the order it sees them.
func recordEvictions(c *sieveCache) *[]string {
	var got []string
	c.onEvict = func(e *sieveEntry) *sieveEntry { got = append(got, e.key); return nil }
	return &got
}

// An entry hit since the hand last passed it survives the next eviction,
// wherever it sits in insertion order; the hand clears its bit on the
// way, so it goes on the pass after unless it is hit again.
func TestCacheVisitedSurvivesEviction(t *testing.T) {
	c := newSieveCache(3, 0)
	evicted := recordEvictions(c)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3"))
	c.view("a")             // oldest, but visited
	c.Put("d", []byte("4")) // the hand passes a and evicts b
	if want := []string{"b"}; !slices.Equal(*evicted, want) {
		t.Fatalf("evicted %v, want %v", *evicted, want)
	}
	// The hand cleared a's bit and sits on c. It evicts the unvisited
	// entries ahead of it, skips e because e was hit, and only then wraps
	// to the oldest end, where a — not hit since the hand passed — goes.
	c.Put("e", []byte("5"))
	c.Put("f", []byte("6"))
	c.view("e")
	c.Put("g", []byte("7"))
	c.Put("h", []byte("8"))
	if want := []string{"b", "c", "d", "f", "a"}; !slices.Equal(*evicted, want) {
		t.Fatalf("evicted %v, want %v", *evicted, want)
	}
	if _, ok := c.view("e"); !ok {
		t.Fatal("e evicted despite a visit")
	}
}

// Entries nobody hits leave in insertion order — FIFO, what a cold
// workload costs under any policy. A refresh does not move an entry.
func TestCacheUnvisitedEvictInsertionOrder(t *testing.T) {
	c := newSieveCache(4, 0)
	evicted := recordEvictions(c)
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("k%02d", i), []byte("v"))
	}
	want := []string{"k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07"}
	if !slices.Equal(*evicted, want) {
		t.Fatalf("evicted %v, want %v", *evicted, want)
	}
	if c.Evictions() != int64(len(want)) {
		t.Errorf("Evictions() = %d, want %d", c.Evictions(), len(want))
	}
}

// A scan of once-used keys does not flush a set that keeps being asked:
// an LRU of the same size would lose every hot key to the scan.
func TestCacheScanResistance(t *testing.T) {
	const hot, size = 6, 8
	c := newSieveCache(size, 0)
	for i := 0; i < hot; i++ {
		c.Put(fmt.Sprintf("hot%d", i), []byte("h"))
	}
	for scan := 0; scan < 100; scan++ {
		for i := 0; i < hot; i++ {
			if _, ok := c.view(fmt.Sprintf("hot%d", i)); !ok {
				t.Fatalf("after %d scanned keys hot%d was flushed", scan, i)
			}
		}
		// More once-used keys than the cache has room for besides the hot
		// set: under an LRU the hot set falls out on the first round.
		for j := 0; j < size; j++ {
			c.Put(fmt.Sprintf("scan%d-%d", scan, j), []byte("s"))
		}
	}
}

// onEvict sees each evicted entry exactly once, in eviction order, with
// the bytes that were resident, whether the entry bound or the byte
// bound forced it out.
func TestCacheOnEvictOncePerEviction(t *testing.T) {
	type ev struct{ key, val string }
	c := newSieveCache(100, 20)
	var got []ev
	c.onEvict = func(e *sieveEntry) *sieveEntry { got = append(got, ev{e.key, string(e.val)}); return nil }
	c.Put("a", []byte("aaaa"))               // 5 bytes
	c.Put("b", []byte("bbbb"))               // 5
	c.Put("c", []byte("cccc"))               // 5
	c.Get("a")                               // a visited
	c.Put("d", []byte("ddddddd"))            // 8: 23 > 20, the hand skips a, evicts b
	c.Put("b", []byte("bb"))                 // 3: 21 > 20, evicts c
	c.Put("a", []byte("A"))                  // refresh to 2 bytes: no eviction
	c.Put("e", []byte("eeeeeeeeeeeeeeeeee")) // 19: everything else goes
	want := []ev{{"b", "bbbb"}, {"c", "cccc"}, {"d", "ddddddd"}, {"b", "bb"}, {"a", "A"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("onEvict saw %v, want %v", got, want)
	}
	if c.Len() != 1 || c.Bytes() != 19 || c.Evictions() != int64(len(want)) {
		t.Errorf("len=%d bytes=%d evictions=%d", c.Len(), c.Bytes(), c.Evictions())
	}
}

// strideZipf returns the benchmark's mixed-fleet request sequence over
// item ids: 320/40/40 items with Zipf (s = 1) popularity inside each
// group and 0.8/0.1/0.1 of the requests between groups, interleaved by
// stride scheduling so every item is asked a fixed number of times per
// window rather than a Poisson number.
func strideZipf(n int) []int {
	var weights []float64
	for _, g := range []struct {
		items int
		share float64
	}{{320, 0.8}, {40, 0.1}, {40, 0.1}} {
		var sum float64
		for i := 1; i <= g.items; i++ {
			sum += 1 / float64(i)
		}
		for i := 1; i <= g.items; i++ {
			weights = append(weights, g.share/(float64(i)*sum))
		}
	}
	pass := make([]float64, len(weights))
	for i, w := range weights {
		pass[i] = 0.5 / w
	}
	seq := make([]int, n)
	for k := range seq {
		best := 0
		for i := range pass {
			if pass[i] < pass[best] {
				best = i
			}
		}
		seq[k] = best
		pass[best] += 1 / weights[best]
	}
	return seq
}

// TestCacheZipfReplay replays mixed-fleet's key sequence against a
// 256-entry cache (the daemon's default -cache-size) the way the daemon
// fills it: every key is put once in id order as the warm-up, a miss
// puts the key. Three passes over the sequence run, the last is counted.
// SIEVE reads 0.875 here; an LRU reads 0.789 on the same sequence, which
// is the hit ratio the daemon measured under it.
func TestCacheZipfReplay(t *testing.T) {
	seq := strideZipf(1 << 15)
	c := newSieveCache(256, 0)
	key := func(id int) string { return fmt.Sprintf("k%d", id) }
	for id := 0; id < 400; id++ {
		c.Put(key(id), []byte("v"))
	}
	var hits int
	for p := 0; p < 3; p++ {
		hits = 0
		for _, id := range seq {
			if _, ok := c.view(key(id)); ok {
				hits++
			} else {
				c.Put(key(id), []byte("v"))
			}
		}
	}
	ratio := float64(hits) / float64(len(seq))
	t.Logf("hit ratio %.4f", ratio)
	if ratio < 0.87 {
		t.Errorf("hit ratio %.4f, want ≥ 0.87", ratio)
	}
}
