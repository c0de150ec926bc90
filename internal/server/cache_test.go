package server

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestCacheBasics(t *testing.T) {
	c := newSieveCache(2, 0)
	if _, ok := c.view("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if v, ok := c.view("a"); !ok || string(v) != "1" {
		t.Errorf("a = %q, %v", v, ok)
	}
	// "a" is visited; inserting "c" passes it and evicts "b".
	c.Put("c", []byte("3"))
	if _, ok := c.view("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.view("a"); !ok {
		t.Error("a evicted despite a visit")
	}
	if _, ok := c.view("c"); !ok {
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
	if v, _ := c.view("a"); string(v) != "one" {
		t.Errorf("a = %q", v)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newSieveCache(capacity, 0)
		c.Put("a", []byte("1"))
		if _, ok := c.view("a"); ok {
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
				if v, ok := c.view(key); ok && string(v) != key {
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

// A view stays as it was handed out: refreshing its key, evicting its
// entry and recycling that entry for another key all leave the viewed
// bytes alone, because values are replaced wholesale, never written into.
func TestCacheViewSurvivesRefresh(t *testing.T) {
	c := newSieveCache(1, 0)
	c.Put("k", []byte("pristine"))
	v, ok := c.view("k")
	if !ok {
		t.Fatal("miss")
	}
	c.Put("k", []byte("refreshed"))
	c.Put("other", []byte("recycled")) // evicts k; its entry is the spare
	c.Put("third", []byte("reused"))   // evicts other, reusing k's entry
	if string(v) != "pristine" {
		t.Errorf("a viewed body changed to %q", v)
	}
	if w, _ := c.view("third"); string(w) != "reused" {
		t.Errorf("third = %q", w)
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
	if v, _ := c.view("a"); string(v) != "1" {
		t.Errorf("a = %q after refresh", v)
	}
	// A refresh that pushes the account over the byte bound evicts
	// entries using the refreshed sizes.
	c.Put("b", make([]byte, 98)) // "b"(1) + 98 = 99, + "a"(2) = 101 > 100
	if _, ok := c.view("a"); ok {
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
	if _, ok := c.view("a"); ok {
		t.Error("a survived byte eviction")
	}
	if c.Bytes() != 8 || c.Len() != 2 {
		t.Errorf("after eviction bytes=%d len=%d", c.Bytes(), c.Len())
	}
	// An entry alone exceeding the bound is not cached.
	c.Put("huge", []byte("0123456789ab"))
	if _, ok := c.view("huge"); ok {
		t.Error("oversized entry cached")
	}
	// Refreshing an entry adjusts the byte account.
	c.Put("b", []byte("4"))
	if c.Bytes() != 5 {
		t.Errorf("after refresh bytes=%d", c.Bytes())
	}
}

// putRecording puts key and appends to *evicted each entry the put
// evicted, as "key=value", in the order the hand reached it: the entries
// resident before and gone after, walked from where the hand stood. (A
// put that clears an entry's bit and evicts it on a second lap, after
// entries behind the hand, is ordered wrongly by this; no test here
// makes one.)
func putRecording(c *sieveCache, evicted *[]string, key string, val []byte) {
	var keys, resident []string
	for e := c.hand; len(keys) < len(c.entries); e = e.newer {
		if e != &c.root {
			keys = append(keys, e.key)
			resident = append(resident, e.key+"="+string(e.val))
		}
	}
	c.Put(key, val)
	for i, k := range keys {
		if _, ok := c.entries[k]; !ok {
			*evicted = append(*evicted, resident[i])
		}
	}
}

// An entry hit since the hand last passed it survives the next eviction,
// wherever it sits in insertion order; the hand clears its bit on the
// way, so it goes on the pass after unless it is hit again.
func TestCacheVisitedSurvivesEviction(t *testing.T) {
	c := newSieveCache(3, 0)
	var evicted []string
	put := func(key string) { putRecording(c, &evicted, key, []byte("v")) }
	put("a")
	put("b")
	put("c")
	c.view("a") // oldest, but visited
	put("d")    // the hand passes a and evicts b
	if want := []string{"b=v"}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	// The hand cleared a's bit and sits on c. It evicts the unvisited
	// entries ahead of it, skips e because e was hit, and only then wraps
	// to the oldest end, where a — not hit since the hand passed — goes.
	put("e")
	put("f")
	c.view("e")
	put("g")
	put("h")
	if want := []string{"b=v", "c=v", "d=v", "f=v", "a=v"}; !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	if _, ok := c.view("e"); !ok {
		t.Fatal("e evicted despite a visit")
	}
}

// Entries nobody hits leave in insertion order — FIFO, what a cold
// workload costs under any policy.
func TestCacheUnvisitedEvictInsertionOrder(t *testing.T) {
	c := newSieveCache(4, 0)
	var evicted []string
	for i := 0; i < 12; i++ {
		putRecording(c, &evicted, fmt.Sprintf("k%02d", i), []byte("v"))
	}
	want := []string{"k00=v", "k01=v", "k02=v", "k03=v", "k04=v", "k05=v", "k06=v", "k07=v"}
	if !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
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

// Each eviction happens once, in the hand's order, to the bytes that
// were resident, whether the entry bound or the byte bound forced it
// out, and Evictions counts each once.
func TestCacheEvictionsUnderBothBounds(t *testing.T) {
	c := newSieveCache(100, 20)
	var evicted []string
	put := func(key, val string) { putRecording(c, &evicted, key, []byte(val)) }
	put("a", "aaaa")               // 5 bytes
	put("b", "bbbb")               // 5
	put("c", "cccc")               // 5
	c.view("a")                    // a visited
	put("d", "ddddddd")            // 8: 23 > 20, the hand skips a, evicts b
	put("b", "bb")                 // 3: 21 > 20, evicts c
	put("a", "A")                  // refresh to 2 bytes: no eviction
	put("e", "eeeeeeeeeeeeeeeeee") // 19: everything else goes
	want := []string{"b=bbbb", "c=cccc", "d=ddddddd", "b=bb", "a=A"}
	if !slices.Equal(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
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
// cache the way the daemon fills it: every key is put once in id order
// as the warm-up, a miss puts the key. Three passes over the sequence
// run, the last is counted. At 256 entries SIEVE reads 0.875 here; an
// LRU reads 0.789 on the same sequence, which is the hit ratio the
// daemon measured under it. At the daemon's default of 512 the whole
// 400-key population is resident after the warm-up: every request hits.
func TestCacheZipfReplay(t *testing.T) {
	seq := strideZipf(1 << 15)
	key := func(id int) string { return fmt.Sprintf("k%d", id) }
	for _, row := range []struct {
		size int
		min  float64
	}{{256, 0.87}, {512, 1}} {
		c := newSieveCache(row.size, 0)
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
		t.Logf("%d entries: hit ratio %.4f", row.size, ratio)
		if ratio < row.min {
			t.Errorf("%d entries: hit ratio %.4f, want ≥ %g", row.size, ratio, row.min)
		}
	}
}
