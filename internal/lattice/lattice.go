// Package lattice models the cuboid lattice induced by a star schema's
// dimension hierarchies: every combination of one level per dimension is a
// potential materialized view, partially ordered by "can be answered from".
//
// For the paper's sales schema (time: day/month/year/ALL × geography:
// department/region/country/ALL) the lattice has 16 nodes; the base cuboid
// (day × department) is the fact table itself and the apex (ALL × ALL) is
// the grand total.
package lattice

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"vmcloud/internal/schema"
	"vmcloud/internal/units"
)

// Point identifies a cuboid: Point[i] is the level index of dimension i
// (0 = finest, NumLevels-1 = ALL).
type Point []int

// Equal reports whether p and q name the same cuboid.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// FinerOrEqual reports whether p is at least as fine as q in every
// dimension — i.e. the cuboid at p can answer any query at q.
func (p Point) FinerOrEqual(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

// Node is one cuboid with its estimated statistics.
type Node struct {
	Point Point
	// Rows is the number of rows scanned when this cuboid is the query
	// source: distinct groups for materialized views, the raw fact count
	// for the base cuboid (stored un-aggregated).
	Rows int64
	// Size is the estimated stored size (Rows × row width).
	Size units.DataSize
	// Groups is the number of distinct group keys — the row count of a
	// query RESULT at this cuboid. Equal to Rows except at the base.
	Groups int64
	// ResultSize is the estimated size of a query result at this cuboid
	// (Groups × row width) — the s(Ri) of the transfer cost model.
	ResultSize units.DataSize
}

// Lattice is the full cuboid lattice of a schema at a given fact-table
// row count.
type Lattice struct {
	Schema   *schema.Schema
	FactRows int64
	nodes    []Node // indexed by encoded point id
	radices  []int  // levels per dimension
	// Answerability index (index.go): desc[i] is the bitset of node ids
	// strictly coarser than i, anc[i] of ids strictly finer.
	desc []bitset
	anc  []bitset
}

// New builds the lattice for the schema assuming factRows base rows.
// Cuboid row counts are estimated with Cardenas' formula
// d·(1−(1−1/d)^n) — the expected number of distinct values hit when n rows
// draw uniformly from d possible group keys — capped at both d and n.
func New(s *schema.Schema, factRows int64) (*Lattice, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if factRows <= 0 {
		return nil, fmt.Errorf("lattice: non-positive fact rows %d", factRows)
	}
	l := &Lattice{Schema: s, FactRows: factRows}
	l.radices = make([]int, len(s.Dimensions))
	total := 1
	for i, d := range s.Dimensions {
		l.radices[i] = d.NumLevels()
		total *= d.NumLevels()
	}
	l.nodes = make([]Node, total)
	// Every node's point is cut from one slab, capped at its own
	// coordinates so an append on one point cannot reach the next.
	dims := len(s.Dimensions)
	points := make([]int, total*dims)
	for id := 0; id < total; id++ {
		pt := Point(points[id*dims : (id+1)*dims : (id+1)*dims])
		l.decode(id, pt)
		l.nodes[id].Point = pt
	}
	l.sizeNodes()
	l.buildIndex()
	return l, nil
}

// WithFactRows returns the lattice of l's schema at another fact-row
// count. Only a node's statistics depend on that count: the points, the
// radices and the answerability index are shared with l, which both
// lattices only ever read.
func (l *Lattice) WithFactRows(factRows int64) (*Lattice, error) {
	if factRows <= 0 {
		return nil, fmt.Errorf("lattice: non-positive fact rows %d", factRows)
	}
	r := &Lattice{Schema: l.Schema, FactRows: factRows, nodes: slices.Clone(l.nodes), radices: l.radices, desc: l.desc, anc: l.anc}
	r.sizeNodes()
	return r, nil
}

// sizeNodes fills every node's statistics from its point and FactRows.
func (l *Lattice) sizeNodes() {
	s := l.Schema
	for id := range l.nodes {
		n := &l.nodes[id]
		keys := int64(1)
		for i, lv := range n.Point {
			keys = mulCap(keys, int64(s.Dimensions[i].Levels[lv].Cardinality))
		}
		n.Groups = cardenas(keys, l.FactRows)
		n.Rows = n.Groups
		// The base cuboid is the fact table itself, stored un-aggregated:
		// scanning it touches every fact row, not just distinct keys.
		if id == 0 {
			n.Rows = l.FactRows
		}
		n.Size = s.RowBytes.MulInt(n.Rows)
		n.ResultSize = s.RowBytes.MulInt(n.Groups)
	}
}

func mulCap(a, b int64) int64 {
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// cardenas estimates the distinct group count for n rows over d keys.
func cardenas(d, n int64) int64 {
	if d <= 0 || n <= 0 {
		return 0
	}
	if d == 1 {
		return 1
	}
	df := float64(d)
	// d·(1−(1−1/d)^n), computed in log space for stability.
	est := df * (1 - math.Exp(float64(n)*math.Log1p(-1/df)))
	r := int64(math.Round(est))
	if r < 1 {
		r = 1
	}
	if r > d {
		r = d
	}
	if r > n {
		r = n
	}
	return r
}

// encode maps a point to its dense node id (mixed radix).
func (l *Lattice) encode(p Point) int {
	id := 0
	for i, lv := range p {
		id = id*l.radices[i] + lv
	}
	return id
}

func (l *Lattice) decode(id int, out Point) {
	for i := len(l.radices) - 1; i >= 0; i-- {
		out[i] = id % l.radices[i]
		id /= l.radices[i]
	}
}

// NumNodes returns the number of cuboids in the lattice.
func (l *Lattice) NumNodes() int { return len(l.nodes) }

// Nodes returns all cuboids in encoded-id order (base first, apex last).
func (l *Lattice) Nodes() []Node { return l.nodes }

// Node returns the cuboid at p.
func (l *Lattice) Node(p Point) (Node, error) {
	if err := l.checkPoint(p); err != nil {
		return Node{}, err
	}
	return l.nodes[l.encode(p)], nil
}

func (l *Lattice) checkPoint(p Point) error {
	if len(p) != len(l.radices) {
		return fmt.Errorf("lattice: point %v has %d dims, schema has %d", p, len(p), len(l.radices))
	}
	for i, lv := range p {
		if lv < 0 || lv >= l.radices[i] {
			return fmt.Errorf("lattice: point %v level %d out of range [0,%d)", p, lv, l.radices[i])
		}
	}
	return nil
}

// Base returns the finest cuboid (the fact table grain).
func (l *Lattice) Base() Point { return make(Point, len(l.radices)) }

// PointOf builds a Point from per-dimension level names, e.g.
// PointOf("year", "country").
func (l *Lattice) PointOf(levelNames ...string) (Point, error) {
	id, err := l.IDOf(levelNames...)
	if err != nil {
		return nil, err
	}
	p := make(Point, len(levelNames))
	l.decode(id, p)
	return p, nil
}

// IDOf is the dense node id of PointOf(levelNames...), without the
// point.
func (l *Lattice) IDOf(levelNames ...string) (int, error) {
	if len(levelNames) != len(l.Schema.Dimensions) {
		return 0, fmt.Errorf("lattice: want %d level names, got %d", len(l.Schema.Dimensions), len(levelNames))
	}
	id := 0
	for i, name := range levelNames {
		idx, err := l.Schema.Dimensions[i].LevelIndex(name)
		if err != nil {
			return 0, err
		}
		id = id*l.radices[i] + idx
	}
	return id, nil
}

// Name renders a point as "year×country".
func (l *Lattice) Name(p Point) string {
	parts := make([]string, len(p))
	for i, lv := range p {
		parts[i] = l.Schema.Dimensions[i].Levels[lv].Name
	}
	return strings.Join(parts, "×")
}

// CanAnswer reports whether a cuboid materialized at view can answer a
// query at query — i.e. view is finer-or-equal in every dimension.
func (l *Lattice) CanAnswer(view, query Point) bool {
	return view.FinerOrEqual(query)
}

// CheapestAnswering returns, among the given materialized points plus the
// base cuboid, the one with the fewest rows that can answer the query.
// It reflects the paper's processing model: a query runs against its
// smallest answering view, or the base table when none applies.
func (l *Lattice) CheapestAnswering(materialized []Point, query Point) (Point, Node) {
	qid, err := l.ID(query)
	if err != nil {
		return l.cheapestAnsweringSlow(materialized, query)
	}
	best := l.Base()
	bestNode := l.nodes[0] // base encodes to id 0
	for _, v := range materialized {
		vid, err := l.ID(v)
		if err != nil || !l.CanAnswerID(vid, qid) {
			continue
		}
		if n := l.nodes[vid]; n.Rows < bestNode.Rows {
			best, bestNode = v, n
		}
	}
	return best, bestNode
}

// cheapestAnsweringSlow preserves the pre-index behavior for queries
// that do not validate: answerability falls back to the pairwise
// partial-order test.
func (l *Lattice) cheapestAnsweringSlow(materialized []Point, query Point) (Point, Node) {
	best := l.Base()
	bestNode := l.nodes[l.encode(best)]
	for _, v := range materialized {
		if !l.CanAnswer(v, query) {
			continue
		}
		n := l.nodes[l.encode(v)]
		if n.Rows < bestNode.Rows {
			best, bestNode = v, n
		}
	}
	return best, bestNode
}
