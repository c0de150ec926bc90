package server

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// cacheModel is SIEVE written the plain way — a slice in insertion order
// and an index for the hand — for FuzzCacheOps to hold sieveCache to.
type cacheModel struct {
	cap      int
	capBytes int64
	order    []modelEntry // oldest first
	hand     int          // next eviction starts here; -1 means the oldest
	evicted  []string     // entry.String(), in eviction order
}

// modelEntry is a value (Put) or, with ref set, a raw-key entry's
// canonical key (PutRef): view reads a value, ref a canonical key, and
// each reads the other kind as nothing.
type modelEntry struct {
	key, val     string
	ref, visited bool
}

func (e modelEntry) String() string {
	if e.ref {
		return e.key + "=&" + e.val
	}
	return e.key + "=" + e.val
}

func (m *cacheModel) bytes() (n int64) {
	for _, e := range m.order {
		n += int64(len(e.key) + len(e.val))
	}
	return n
}

func (m *cacheModel) find(key string) int {
	return slices.IndexFunc(m.order, func(e modelEntry) bool { return e.key == key })
}

// get marks key visited and returns what view (ref false) or ref (ref
// true) reads from it.
func (m *cacheModel) get(key string, ref bool) (string, bool) {
	i := m.find(key)
	if i < 0 {
		return "", false
	}
	m.order[i].visited = true
	if m.order[i].ref != ref {
		return "", true
	}
	return m.order[i].val, true
}

func (m *cacheModel) put(v modelEntry) {
	size := int64(len(v.key) + len(v.val))
	if m.cap < 1 || (m.capBytes > 0 && size > m.capBytes) {
		return
	}
	if i := m.find(v.key); i >= 0 {
		m.order[i].val, m.order[i].ref, m.order[i].visited = v.val, v.ref, true
		m.evict(0, 0)
		return
	}
	m.evict(1, size)
	v.visited = false
	m.order = append(m.order, v)
}

func (m *cacheModel) evict(n int, size int64) {
	for len(m.order)+n > m.cap || (m.capBytes > 0 && m.bytes()+size > m.capBytes) {
		i := max(m.hand, 0)
		for m.order[i].visited {
			m.order[i].visited = false
			if i++; i == len(m.order) {
				i = 0
			}
		}
		e := m.order[i]
		m.evicted = append(m.evicted, e.String())
		m.order = slices.Delete(m.order, i, i+1)
		if m.hand = i; i == len(m.order) {
			m.hand = -1
		}
	}
}

// FuzzCacheOps runs a random sequence of Put, PutRef, ref and view
// calls with random value sizes against both bounds on one cache, as the
// server's response and raw-key caches each are, and checks it against
// cacheModel after every call: the same answers, the same entries in the
// same order with the same visited bits, the same hand, and as many
// evictions. It also checks the structure itself: Len() ≤ Cap(), Bytes()
// is the sum of the resident sizes, the map and the list hold the same
// entries, and the hand is the sentinel or a resident entry. And it
// checks recycling: the spare is off the list and holds nothing, and
// every body a view handed out still reads as it did, however its entry
// moved on.
func FuzzCacheOps(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 3, 4, 5, 8, 1, 12, 2, 2, 0, 16, 7, 3, 0})
	f.Add(uint8(9), uint8(40), []byte{1, 20, 5, 9, 9, 0, 13, 15, 2, 0, 17, 23, 21, 4, 6, 0})
	f.Add(uint8(0), uint8(0), []byte{0, 1, 2, 0})
	f.Add(uint8(3), uint8(12), []byte{0, 10, 4, 11, 8, 2, 2, 0, 12, 9, 0, 1})
	f.Add(uint8(23), uint8(0), []byte{0, 3, 4, 5, 8, 1, 12, 2, 16, 0, 20, 7, 24, 0, 28, 4, 3, 0, 32, 9, 36, 1, 7, 0})
	f.Fuzz(func(t *testing.T, capacity, maxBytes uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		c := newSieveCache(int(capacity%10)-1, int64(maxBytes%64))
		m := &cacheModel{cap: c.cap, capBytes: c.capBytes, hand: -1}
		type served struct {
			body []byte
			want string
		}
		var views []served
		for k := 0; k+1 < len(ops); k += 2 {
			key := fmt.Sprintf("k%d", ops[k]/4%12)
			val := string(bytes.Repeat([]byte{'a' + byte(k%26)}, int(ops[k+1]%24)))
			op := ops[k] % 4
			var got string
			var ok bool
			switch op {
			case 0:
				c.Put(key, []byte(val))
			case 1:
				c.PutRef(key, 1+int(ops[k+1]), val)
			case 2:
				_, got, ok = c.ref([]byte(key))
			case 3:
				var b []byte
				if b, ok = c.view(key); ok {
					views = append(views, served{b, string(b)})
				}
				got = string(b)
			}
			if op < 2 {
				m.put(modelEntry{key: key, val: val, ref: op == 1})
			} else if want, wantOK := m.get(key, op == 2); ok != wantOK || got != want {
				t.Fatalf("op %d: %s(%q) = %q, %v; model %q, %v", k/2, [...]string{2: "ref", 3: "view"}[op], key, got, ok, want, wantOK)
			}
			checkAgainstModel(t, c, m)
			checkRecycling(t, c)
			for _, v := range views {
				if string(v.body) != v.want {
					t.Fatalf("op %d: a served body changed from %q to %q", k/2, v.want, v.body)
				}
			}
		}
	})
}

// checkAgainstModel holds c to m.
func checkAgainstModel(t *testing.T, c *sieveCache, m *cacheModel) {
	t.Helper()
	if c.Len() > max(c.Cap(), 0) {
		t.Fatalf("Len() = %d > Cap() = %d", c.Len(), c.Cap())
	}
	var resident []modelEntry
	var size int64
	for e := c.root.newer; e != &c.root; e = e.newer {
		if e.newer.older != e || c.entries[e.key] != e {
			t.Fatalf("list entry %q is not linked both ways or not the map's", e.key)
		}
		resident = append(resident, residentOf(e))
		size += e.size()
	}
	if len(resident) != len(c.entries) || c.Len() != len(c.entries) {
		t.Fatalf("list holds %d entries, map %d, Len() %d", len(resident), len(c.entries), c.Len())
	}
	if c.Bytes() != size {
		t.Fatalf("Bytes() = %d, resident entries sum to %d", c.Bytes(), size)
	}
	if c.hand != &c.root && c.entries[c.hand.key] != c.hand {
		t.Fatalf("hand on %q, which is not resident", c.hand.key)
	}
	if !slices.Equal(resident, m.order) {
		t.Fatalf("cache holds %v, model %v", resident, m.order)
	}
	if wantHand := m.hand; (c.hand == &c.root) != (wantHand < 0) || wantHand >= 0 && c.hand.key != m.order[wantHand].key {
		t.Fatalf("hand on %q, model's at %d", c.hand.key, wantHand)
	}
	if c.Evictions() != int64(len(m.evicted)) {
		t.Fatalf("Evictions() = %d, model evicted %v", c.Evictions(), m.evicted)
	}
}

// residentOf is e as cacheModel holds it: a raw-key entry (PutRef, a
// label from 1 up) by its ref.
func residentOf(e *sieveEntry) modelEntry {
	if e.label != 0 {
		return modelEntry{key: e.key, val: e.ref, ref: true, visited: e.visited}
	}
	return modelEntry{key: e.key, val: string(e.val), visited: e.visited}
}

// checkRecycling holds c's spare — the entry its next insert reuses —
// off the list and empty, so nothing a recycled entry held stays
// reachable through it.
func checkRecycling(t *testing.T, c *sieveCache) {
	t.Helper()
	if c.spare == nil {
		return
	}
	for e := c.root.newer; e != &c.root; e = e.newer {
		if e == c.spare {
			t.Fatalf("the spare entry is linked as %q", e.key)
		}
	}
	if c.spare.key != "" || c.spare.val != nil || c.spare.ref != "" {
		t.Fatalf("the spare entry still holds %q", c.spare.key)
	}
}
