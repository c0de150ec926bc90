package lattice

import "math/bits"

// The answerability index: per-node ancestor/descendant bitsets over
// dense node ids, precomputed once at construction. Answerability tests
// ("can the cuboid at view id v answer a query at id q?") become a
// single word probe, and ancestor/descendant enumeration becomes a bit
// scan — no per-call FinerOrEqual loops or point re-encoding. The
// incremental evaluation engine (internal/optimizer) and the HRU
// candidate generator (internal/views) are built on these ids.

// bitset is a fixed-width set of node ids packed into 64-bit words.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// addWith unions other and the single id i into b.
//
//mvlint:hotpath
func (b bitset) addWith(other bitset, i int) {
	for w, word := range other {
		b[w] |= word
	}
	b.set(i)
}

// appendIDs appends the set members in ascending order.
func (b bitset) appendIDs(out []int) []int {
	for w, word := range b {
		base := w << 6
		for word != 0 {
			out = append(out, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// MaxIndexNodes caps the answerability index: the bitsets cost
// N²/4 bytes across the lattice, which is ~16 MB at 8192 nodes and a
// memory blow-up well before the schema layer's 2²⁰-node cap. Larger
// lattices skip the index and fall back to O(dims) point comparisons —
// still far cheaper than the pre-index per-call encode-and-scan paths.
const MaxIndexNodes = 1 << 13

// buildIndex fills desc/anc: desc[i] holds the ids strictly coarser than
// i (the queries i can answer besides itself), anc[i] the ids strictly
// finer (the cuboids that can answer i besides itself). One level up in
// one dimension is one mixed-radix stride up in id, so a node's
// descendants are its direct children plus theirs, gathered coarsest
// node first as whole-word ORs; ancestors mirror that from the base.
// All 2·N bitsets are cut from one slab of words, their headers from
// one slab of headers.
func (l *Lattice) buildIndex() {
	n := len(l.nodes)
	if n > MaxIndexNodes {
		return // desc/anc stay nil; id queries use the partial order
	}
	words := (n + 63) / 64
	slab := make([]uint64, 2*n*words)
	sets := make([]bitset, 2*n)
	for i := range sets {
		sets[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	l.desc, l.anc = sets[:n:n], sets[n:]
	for id := n - 1; id >= 0; id-- {
		stride := 1
		for d := len(l.radices) - 1; d >= 0; d-- {
			if l.nodes[id].Point[d]+1 < l.radices[d] {
				l.desc[id].addWith(l.desc[id+stride], id+stride)
			}
			stride *= l.radices[d]
		}
	}
	for id := 0; id < n; id++ {
		stride := 1
		for d := len(l.radices) - 1; d >= 0; d-- {
			if l.nodes[id].Point[d] > 0 {
				l.anc[id].addWith(l.anc[id-stride], id-stride)
			}
			stride *= l.radices[d]
		}
	}
}

// ID returns the dense node id of p (0 = base, NumNodes()-1 = apex),
// validating the point. Ids are stable for the lattice's lifetime and
// index Nodes() directly.
func (l *Lattice) ID(p Point) (int, error) {
	if err := l.checkPoint(p); err != nil {
		return 0, err
	}
	return l.encode(p), nil
}

// NodeByID returns the cuboid at a dense id. It panics on an id outside
// [0, NumNodes()) — ids come from ID or the index itself, so an invalid
// one is a programming error, not an input error.
func (l *Lattice) NodeByID(id int) Node { return l.nodes[id] }

// CanAnswerID reports whether the cuboid at id view can answer a query
// at id query — one word probe against the precomputed index (an
// O(dims) point comparison on lattices too large to index).
func (l *Lattice) CanAnswerID(view, query int) bool {
	if l.desc == nil {
		return l.nodes[view].Point.FinerOrEqual(l.nodes[query].Point)
	}
	return view == query || l.desc[view].has(query)
}

// AncestorIDs appends to out the ids strictly finer than id, ascending
// (base first). Pass a reused slice to avoid allocation.
func (l *Lattice) AncestorIDs(id int, out []int) []int {
	if l.anc == nil {
		return l.relatedIDsSlow(id, out, func(n Node) bool {
			return n.Point.FinerOrEqual(l.nodes[id].Point)
		})
	}
	return l.anc[id].appendIDs(out)
}

// DescendantIDs appends to out the ids strictly coarser than id,
// ascending. Pass a reused slice to avoid allocation.
func (l *Lattice) DescendantIDs(id int, out []int) []int {
	if l.desc == nil {
		p := l.nodes[id].Point
		return l.relatedIDsSlow(id, out, func(n Node) bool {
			return p.FinerOrEqual(n.Point)
		})
	}
	return l.desc[id].appendIDs(out)
}

// relatedIDsSlow enumerates related ids by partial-order comparison for
// unindexed (over-cap) lattices.
func (l *Lattice) relatedIDsSlow(id int, out []int, keep func(Node) bool) []int {
	for j, n := range l.nodes {
		if j != id && keep(n) {
			out = append(out, j)
		}
	}
	return out
}
