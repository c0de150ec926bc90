package server

import "sync"

// sieveCache is a size-bounded, mutex-guarded map from canonical request
// keys to marshaled response bodies, evicting by SIEVE ("SIEVE is
// Simpler than LRU", NSDI 2024). It is bounded in entry count and in
// resident bytes (keys + values), so operators can cap the daemon's
// cache memory. Get returns a defensive copy, so the interior bytes can
// never be mutated through an escaped slice; Put takes ownership of val.
//
// Entries sit in one list in insertion order. A hit only sets the
// entry's visited bit; nothing is relinked. Eviction walks a hand from
// the oldest end toward the newest, clearing the visited bits it passes,
// evicts the first unvisited entry and leaves the hand on its successor,
// so a run of once-asked keys cannot flush a set that is asked again.
//
// A response entry also carries clen, its Content-Length header value,
// formatted once at fill time so a hit hands it to the header map
// without allocating. Raw-key entries have none.
type sieveCache struct {
	mu       sync.Mutex
	cap      int
	capBytes int64
	bytes    int64
	entries  map[string]*sieveEntry
	// root is the list's sentinel (root.newer oldest, root.older newest);
	// the next eviction walks from hand, from the oldest if hand is root.
	root sieveEntry
	hand *sieveEntry
	// evictions counts entries removed by the capacity bounds (not
	// replacements), exported as mvcloud_cache_evictions_total.
	evictions int64
	// onEvict, when non-nil, receives each capacity-evicted entry (the
	// graceful-degradation hook: the server feeds evicted responses into
	// its stale cache). Called with c.mu held, so the callback must not
	// touch this cache; ownership of val transfers to the callback.
	onEvict func(key string, val []byte)
}

type sieveEntry struct {
	key          string
	val          []byte
	clen         []string
	visited      bool
	newer, older *sieveEntry
}

func (e *sieveEntry) size() int64 { return int64(len(e.key) + len(e.val)) }

// newSieveCache builds a cache holding at most capacity entries and
// maxBytes resident bytes; capacity < 1 disables caching (every Get
// misses, every Put is dropped), maxBytes < 1 means unbounded bytes.
func newSieveCache(capacity int, maxBytes int64) *sieveCache {
	c := &sieveCache{cap: capacity, capBytes: maxBytes, entries: make(map[string]*sieveEntry)}
	c.root.newer, c.root.older, c.hand = &c.root, &c.root, &c.root
	return c
}

// Get returns a copy of the cached value and marks the key visited.
// Copying keeps the cached bytes unaliased: a caller scribbling on the
// returned slice cannot corrupt what later readers are served.
func (c *sieveCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e.visited = true
	return append([]byte(nil), e.val...), true
}

// view returns the cached value without copying and marks the key
// visited. The key is taken as bytes so the compiler's map[string]
// lookup optimization applies — a hot-path probe allocates nothing. The
// returned slice aliases cache-owned memory: values are only ever
// replaced wholesale (never scribbled in place), so the view — and the
// entry's Content-Length value returned beside it — stays byte-stable
// for as long as the caller holds it, but the caller must treat it as
// read-only and must not retain it past the request. Callers that hand
// the bytes to arbitrary code want Get's defensive copy instead.
//
//mvlint:hotpath
func (c *sieveCache) view(key []byte) (val []byte, clen []string, ok bool) {
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	if ok {
		e.visited = true
		val, clen = e.val, e.clen
	}
	c.mu.Unlock()
	return val, clen, ok
}

// Put inserts or refreshes (a visit, in place) a value, evicting while a
// bound would be exceeded. An entry over the byte bound is not cached.
func (c *sieveCache) Put(key string, val []byte) { c.PutResponse(key, val, nil) }

// PutResponse is Put for a response body, stored with its Content-Length
// header value for view to hand back.
func (c *sieveCache) PutResponse(key string, val []byte, clen []string) {
	size := int64(len(key) + len(val))
	if c.cap < 1 || (c.capBytes > 0 && size > c.capBytes) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes += size - e.size()
		e.val, e.clen, e.visited = val, clen, true
		c.evict(0, 0)
		return
	}
	// Make room first, so the hand never lands on the entry being added.
	c.evict(1, size)
	e := &sieveEntry{key: key, val: val, clen: clen, newer: &c.root, older: c.root.older}
	e.older.newer, c.root.older = e, e
	c.entries[key] = e
	c.bytes += size
}

// evict removes entries until n more entries of size bytes fit.
func (c *sieveCache) evict(n int, size int64) {
	for len(c.entries)+n > c.cap || (c.capBytes > 0 && c.bytes+size > c.capBytes) {
		e := c.hand
		for ; e == &c.root || e.visited; e = e.newer {
			e.visited = false
		}
		c.hand = e.newer
		e.older.newer, e.newer.older = e.newer, e.older
		delete(c.entries, e.key)
		c.bytes -= e.size()
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(e.key, e.val)
		}
	}
}

// NamespaceStat is the per-namespace slice of a cache's footprint.
type NamespaceStat struct {
	Entries int
	Bytes   int64
}

// NamespaceStats breaks the cache's footprint down by key namespace —
// the prefix up to the first NUL byte, which under the server's key
// scheme is the endpoint name. Keys without a NUL fall under "". The
// walk is O(entries), fine for a stats endpoint over a bounded cache.
func (c *sieveCache) NamespaceStats() map[string]NamespaceStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]NamespaceStat)
	for e := c.root.newer; e != &c.root; e = e.newer {
		ns := ""
		for i := 0; i < len(e.key); i++ {
			if e.key[i] == 0 {
				ns = e.key[:i]
				break
			}
		}
		st := out[ns]
		st.Entries++
		st.Bytes += e.size()
		out[ns] = st
	}
	return out
}

// Len returns the current entry count.
func (c *sieveCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the resident key+value byte count.
func (c *sieveCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the lifetime capacity-eviction count.
func (c *sieveCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Cap returns the configured entry capacity.
func (c *sieveCache) Cap() int { return c.cap }
