package server

import (
	"container/list"
	"sync"
)

// lruCache is a size-bounded, mutex-guarded LRU map from canonical
// request keys to marshaled response bodies. It is bounded both in
// entry count and in resident bytes (keys + values), so operators can
// cap the daemon's cache memory. Get returns a defensive copy, so the
// interior bytes can never be mutated through an escaped slice; Put
// takes ownership of the passed value (callers must not modify it
// afterwards).
//
// A response entry also carries clen, its Content-Length header value,
// formatted once when the body is filled in: a hit hands it to the
// header map as it is, where formatting it per request would allocate on
// the path that must not. Entries that are not responses (the raw-key
// LRU's) have none.
type lruCache struct {
	mu       sync.Mutex
	cap      int
	capBytes int64
	bytes    int64
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	// evictions counts entries removed by the capacity bounds (not
	// replacements), exported as mvcloud_cache_evictions_total.
	evictions int64
	// onEvict, when non-nil, receives each capacity-evicted entry (the
	// graceful-degradation hook: the server feeds evicted responses into
	// its stale cache). Called with c.mu held, so the callback must not
	// touch this cache; ownership of val transfers to the callback.
	onEvict func(key string, val []byte)
}

type lruEntry struct {
	key  string
	val  []byte
	clen []string
}

func (e *lruEntry) size() int64 { return int64(len(e.key) + len(e.val)) }

// newLRUCache builds a cache holding at most capacity entries and
// maxBytes resident bytes; capacity < 1 disables caching (every Get
// misses, every Put is dropped), maxBytes < 1 means unbounded bytes.
func newLRUCache(capacity int, maxBytes int64) *lruCache {
	return &lruCache{
		cap:      capacity,
		capBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns a copy of the cached value and marks the key most recently
// used. Copying keeps the cached bytes unaliased: a caller scribbling on
// the returned slice cannot corrupt what later readers are served.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return append([]byte(nil), el.Value.(*lruEntry).val...), true
}

// view returns the cached value without copying and marks the key most
// recently used. The key is taken as bytes so the compiler's
// map[string] lookup optimization applies — a hot-path probe allocates
// nothing. The returned slice aliases cache-owned memory: values are
// only ever replaced wholesale (never scribbled in place), so the view
// — and the entry's Content-Length value returned beside it — stays
// byte-stable for as long as the caller holds it, but the caller
// must treat it as read-only and must not retain it past the request.
// Callers that hand the bytes to arbitrary code want Get's defensive
// copy instead.
//
//mvlint:hotpath
func (c *lruCache) view(key []byte) (val []byte, clen []string, ok bool) {
	c.mu.Lock()
	el, ok := c.entries[string(key)]
	if !ok {
		c.mu.Unlock()
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*lruEntry)
	val, clen = e.val, e.clen
	c.mu.Unlock()
	return val, clen, true
}

// Put inserts or refreshes a value, evicting least recently used
// entries while either bound is exceeded. An entry larger than the
// byte bound is not cached at all.
func (c *lruCache) Put(key string, val []byte) { c.PutResponse(key, val, nil) }

// PutResponse is Put for a response body, stored with its Content-Length
// header value for view to hand back.
func (c *lruCache) PutResponse(key string, val []byte, clen []string) {
	if c.cap < 1 {
		return
	}
	entry := &lruEntry{key: key, val: val, clen: clen}
	if c.capBytes > 0 && entry.size() > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		old := el.Value.(*lruEntry)
		c.bytes += entry.size() - old.size()
		old.val, old.clen = val, clen
	} else {
		c.entries[key] = c.order.PushFront(entry)
		c.bytes += entry.size()
	}
	for c.order.Len() > c.cap || (c.capBytes > 0 && c.bytes > c.capBytes) {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		e := oldest.Value.(*lruEntry)
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
func (c *lruCache) NamespaceStats() map[string]NamespaceStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]NamespaceStat)
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
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
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the resident key+value byte count.
func (c *lruCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the lifetime capacity-eviction count.
func (c *lruCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Cap returns the configured entry capacity.
func (c *lruCache) Cap() int { return c.cap }
