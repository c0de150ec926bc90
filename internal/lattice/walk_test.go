package lattice

// The partial-order walkers below are the reference AncestorIDs and
// CanAnswerID are checked against: plain sweeps over every node.

// Apex returns the coarsest cuboid (ALL in every dimension).
func (l *Lattice) Apex() Point { return l.nodes[len(l.nodes)-1].Point.Clone() }

// Ancestors returns the cuboids strictly finer than p, base first.
func (l *Lattice) Ancestors(p Point) []Node {
	return l.related(func(n Node) bool { return n.Point.FinerOrEqual(p) && !n.Point.Equal(p) })
}

// Descendants returns the cuboids strictly coarser than p, in id order.
func (l *Lattice) Descendants(p Point) []Node {
	return l.related(func(n Node) bool { return p.FinerOrEqual(n.Point) && !n.Point.Equal(p) })
}

func (l *Lattice) related(keep func(Node) bool) []Node {
	var out []Node
	for _, n := range l.nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// DescendantIDs is AncestorIDs' mirror: the ids strictly coarser than id,
// ascending.
func (l *Lattice) DescendantIDs(id int, out []int) []int {
	p := l.nodes[id].Point
	for j, n := range l.nodes {
		if j != id && p.FinerOrEqual(n.Point) {
			out = append(out, j)
		}
	}
	return out
}

// Children returns the direct coarser neighbours of p (one level up in
// exactly one dimension).
func (l *Lattice) Children(p Point) []Node { return l.neighbours(p, +1) }

// Parents returns the direct finer neighbours of p (one level down in
// exactly one dimension).
func (l *Lattice) Parents(p Point) []Node { return l.neighbours(p, -1) }

func (l *Lattice) neighbours(p Point, step int) []Node {
	var out []Node
	for i := range p {
		if lv := p[i] + step; lv >= 0 && lv < l.radices[i] {
			q := p.Clone()
			q[i] = lv
			out = append(out, l.nodes[l.encode(q)])
		}
	}
	return out
}
