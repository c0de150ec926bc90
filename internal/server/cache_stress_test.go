package server

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheConcurrentStress hammers Put/view/ref/NamespaceStats/Bytes/Len
// from many goroutines — run under -race this is the memory-model check
// for the serving caches — and then asserts the byte-accounting
// invariants hold exactly: the resident byte counter must equal the sum
// of the surviving entries' sizes, the namespace breakdown must
// partition the cache, and both configured bounds must be respected.
// Evicted entries are recycled for later puts while views of them are
// being read, so a recycled entry written into shows up as a corrupted
// read.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		workers  = 16
		rounds   = 500
		capacity = 64
		maxBytes = 4096
		keySpace = 200
	)
	c := newSieveCache(capacity, maxBytes)
	namespaces := []string{"advise", "compare", "sweep"}
	valFor := func(ns string, k int) []byte {
		// Value length varies with the key so refreshes change entry sizes.
		return []byte(fmt.Sprintf("%s-value-%d-%s", ns, k, "xxxxxxxxxxxxxxxx"[:k%16]))
	}
	keyFor := func(ns string, k int) string {
		return fmt.Sprintf("%s\x00key-%d", ns, k)
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ns := namespaces[(g+i)%len(namespaces)]
				k := (g*31 + i*7) % keySpace
				key := keyFor(ns, k)
				switch i % 5 {
				case 0, 1:
					// Put hands ownership to the cache: always a fresh slice.
					c.Put(key, valFor(ns, k))
				case 2:
					// A value entry carries no label and no canonical key.
					if label, ref, ok := c.ref([]byte(key)); ok && (label != 0 || ref != "") {
						t.Errorf("ref(%q) = %d, %q on a value entry", key, label, ref)
					}
				case 3:
					if v, ok := c.view(key); ok {
						// Views are read-only: verify, never mutate.
						if string(v) != string(valFor(ns, k)) {
							t.Errorf("corrupt view for %q: %q", key, v)
						}
					}
				case 4:
					stats := c.NamespaceStats()
					var total int64
					for _, st := range stats {
						total += st.Bytes
					}
					// A concurrent snapshot can't be compared to live
					// counters exactly, but it can never exceed the hard
					// byte bound.
					if total > maxBytes {
						t.Errorf("namespace bytes %d exceed bound %d", total, maxBytes)
					}
					_ = c.Bytes()
					_ = c.Len()
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiescent invariants: exact byte accounting, bounds respected,
	// namespace stats partition the cache.
	stats := c.NamespaceStats()
	var nsBytes int64
	var nsEntries int
	for _, st := range stats {
		nsBytes += st.Bytes
		nsEntries += st.Entries
	}
	if got := c.Bytes(); got != nsBytes {
		t.Errorf("byte counter %d != sum of entry sizes %d", got, nsBytes)
	}
	if got := c.Len(); got != nsEntries {
		t.Errorf("len %d != sum of namespace entries %d", got, nsEntries)
	}
	if c.Len() > capacity {
		t.Errorf("len %d exceeds capacity %d", c.Len(), capacity)
	}
	if c.Bytes() > maxBytes {
		t.Errorf("bytes %d exceed bound %d", c.Bytes(), maxBytes)
	}
	for ns := range stats {
		found := false
		for _, want := range namespaces {
			if ns == want {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected namespace %q", ns)
		}
	}
	// Every surviving entry still round-trips the bytes it was put with.
	for _, ns := range namespaces {
		for k := 0; k < keySpace; k++ {
			if v, ok := c.view(keyFor(ns, k)); ok {
				if want := valFor(ns, k); string(v) != string(want) {
					t.Errorf("entry %q corrupted: %q != %q", keyFor(ns, k), v, want)
				}
			}
		}
	}
}
