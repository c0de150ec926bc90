package server

import "sync"

// sieveCache is a size-bounded, mutex-guarded map from canonical request
// keys to marshaled response bodies, evicting by SIEVE ("SIEVE is
// Simpler than LRU", NSDI 2024). It is bounded in entry count and in
// resident bytes (keys + values), so operators can cap the daemon's
// cache memory. Put takes ownership of val; view hands it out read-only.
//
// Entries sit in one list in insertion order. A hit only sets the
// entry's visited bit; nothing is relinked. Eviction walks a hand from
// the oldest end toward the newest, clearing the visited bits it passes,
// evicts the first unvisited entry and leaves the hand on its successor,
// so a run of once-asked keys cannot flush a set that is asked again.
//
// A raw-key entry carries a label and a ref instead of a value: the
// request's stats label and its canonical cache key, the string the
// response entry is keyed by, shared rather than copied.
//
// Entries are recycled. An entry taken off the list is held by no one
// else — every read copies its fields out under the lock — so it can be
// the cache's next insert's entry (spare). Its old value is dropped,
// never written into, so a body served from it stays as it was.
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
	// spare is an entry no list holds, zeroed, for the next insert.
	spare *sieveEntry
}

type sieveEntry struct {
	key          string
	val          []byte
	ref          string
	label        int
	visited      bool
	newer, older *sieveEntry
}

func (e *sieveEntry) size() int64 { return int64(len(e.key) + len(e.val) + len(e.ref)) }

// newSieveCache builds a cache holding at most capacity entries and
// maxBytes resident bytes; capacity < 1 disables caching (every view
// misses, every Put is dropped), maxBytes < 1 means unbounded bytes.
func newSieveCache(capacity int, maxBytes int64) *sieveCache {
	c := &sieveCache{cap: capacity, capBytes: maxBytes, entries: make(map[string]*sieveEntry)}
	c.root.newer, c.root.older, c.hand = &c.root, &c.root, &c.root
	return c
}

// view returns the cached value without copying and marks the key
// visited. The returned slice aliases cache-owned memory: values are only
// ever replaced wholesale (never scribbled in place, not even when their
// entry is recycled), so the view stays byte-stable for as long as the
// caller holds it, but the caller must treat it as read-only and must
// not retain it past the request.
//
//mvlint:hotpath
func (c *sieveCache) view(key string) (val []byte, ok bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.visited = true
		val = e.val
	}
	c.mu.Unlock()
	return val, ok
}

// ref returns the label and canonical key of a raw-key entry and marks
// it visited, as view does for a response. The key is taken as bytes so
// the compiler's map[string] lookup optimization applies — a hot-path
// probe allocates nothing.
//
//mvlint:hotpath
func (c *sieveCache) ref(key []byte) (label int, ref string, ok bool) {
	c.mu.Lock()
	e, ok := c.entries[string(key)]
	if ok {
		e.visited = true
		label, ref = e.label, e.ref
	}
	c.mu.Unlock()
	return label, ref, ok
}

// Put inserts or refreshes (a visit, in place) a value, evicting while a
// bound would be exceeded. An entry over the byte bound is not cached.
func (c *sieveCache) Put(key string, val []byte) { c.put(sieveEntry{key: key, val: val}) }

// PutRef is Put for a raw-key entry: key's label and canonical cache key.
func (c *sieveCache) PutRef(key string, label int, ref string) {
	c.put(sieveEntry{key: key, ref: ref, label: label})
}

// put stores v's key and value in the spare entry, or a new one. An
// entry over the byte bound, or any entry when caching is disabled, is
// not cached.
func (c *sieveCache) put(v sieveEntry) {
	if c.cap < 1 || (c.capBytes > 0 && v.size() > c.capBytes) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.spare
	if e == nil {
		e = new(sieveEntry)
	}
	c.spare = nil
	*e = v
	if !c.insert(e) {
		c.spare = recycled(e)
	}
}

// insert links e, off the list, as the newest entry, evicting first
// while a bound would be exceeded, so the hand never lands on it. When
// the cache holds e's key already, that entry takes e's value instead (a
// visit, in place) and insert reports false: e is linked nowhere. Called
// with c.mu held.
func (c *sieveCache) insert(e *sieveEntry) bool {
	size := e.size()
	if old, ok := c.entries[e.key]; ok {
		c.bytes += size - old.size()
		old.val, old.ref, old.label, old.visited = e.val, e.ref, e.label, true
		c.evict(0, 0)
		return false
	}
	c.evict(1, size)
	e.visited = false
	e.newer, e.older = &c.root, c.root.older
	e.older.newer, c.root.older = e, e
	c.entries[e.key] = e
	c.bytes += size
	return true
}

// recycled zeroes e, an entry off the list, for reuse: nothing it held
// stays reachable through it.
func recycled(e *sieveEntry) *sieveEntry {
	*e = sieveEntry{}
	return e
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
		c.spare = recycled(e)
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
