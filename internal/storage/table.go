// Package storage provides the in-memory columnar tables the execution
// engine and the materialized-view machinery operate on.
//
// A Table holds fact or view data at a fixed granularity: one dictionary-
// encoded key column per schema dimension (at some hierarchy level) and one
// int64 column per measure. Hierarchy rollup mappings (e.g. day→month) live
// on the enclosing Dataset so that any table can be re-aggregated to any
// coarser granularity.
package storage

import (
	"fmt"
	"sort"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
)

// Table is a columnar relation at a fixed lattice point.
type Table struct {
	// Name identifies the table ("facts", "mv:year×country", ...).
	Name string
	// Point records each dimension's level (index into the schema
	// dimension's level list). A key column at the ALL level is nil.
	Point lattice.Point
	// Keys holds one dictionary-encoded key column per dimension;
	// Keys[d][r] is the code of row r at dimension d's level Point[d].
	// Keys[d] is nil when Point[d] is the ALL level.
	Keys [][]int32
	// Measures holds the measure columns by schema order.
	Measures [][]int64
	rows     int
}

// NewTable allocates an empty table at the given point with the given
// number of dimensions and measures, pre-sizing for capacity rows.
func NewTable(name string, point lattice.Point, numMeasures, capacity int) *Table {
	t := &Table{
		Name:     name,
		Point:    point.Clone(),
		Keys:     make([][]int32, len(point)),
		Measures: make([][]int64, numMeasures),
	}
	for d := range t.Keys {
		t.Keys[d] = make([]int32, 0, capacity)
	}
	for m := range t.Measures {
		t.Measures[m] = make([]int64, 0, capacity)
	}
	return t
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Append adds one row. keys must have one code per dimension (values at ALL
// levels are ignored and stored as 0 is unnecessary since the column stays
// aligned); measures must match the measure count.
func (t *Table) Append(keys []int32, measures []int64) error {
	if len(keys) != len(t.Keys) {
		return fmt.Errorf("storage: row has %d keys, table %s has %d dimensions", len(keys), t.Name, len(t.Keys))
	}
	if len(measures) != len(t.Measures) {
		return fmt.Errorf("storage: row has %d measures, table %s has %d", len(measures), t.Name, len(t.Measures))
	}
	for d := range t.Keys {
		t.Keys[d] = append(t.Keys[d], keys[d])
	}
	for m := range t.Measures {
		t.Measures[m] = append(t.Measures[m], measures[m])
	}
	t.rows++
	return nil
}

// Validate checks column alignment.
func (t *Table) Validate() error {
	for d, col := range t.Keys {
		if col != nil && len(col) != t.rows {
			return fmt.Errorf("storage: table %s key column %d has %d entries, want %d", t.Name, d, len(col), t.rows)
		}
	}
	for m, col := range t.Measures {
		if len(col) != t.rows {
			return fmt.Errorf("storage: table %s measure column %d has %d entries, want %d", t.Name, m, len(col), t.rows)
		}
	}
	return nil
}

// SortByKeys reorders rows lexicographically by key columns (nil columns —
// ALL levels — compare equal). Aggregated tables use this to keep a
// deterministic row order after merges.
func (t *Table) SortByKeys() {
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, col := range t.Keys {
			if col == nil {
				continue
			}
			if col[idx[a]] != col[idx[b]] {
				return col[idx[a]] < col[idx[b]]
			}
		}
		return false
	})
	for d, col := range t.Keys {
		if col == nil {
			continue
		}
		out := make([]int32, t.rows)
		for i, j := range idx {
			out[i] = col[j]
		}
		t.Keys[d] = out
	}
	for m, col := range t.Measures {
		out := make([]int64, t.rows)
		for i, j := range idx {
			out[i] = col[j]
		}
		t.Measures[m] = out
	}
}

// Dataset bundles a schema, its base fact table, the hierarchy rollup maps
// and optional display labels.
type Dataset struct {
	Schema *schema.Schema
	Facts  *Table
	// Maps holds child→parent index arrays keyed by schema.MapName, e.g.
	// Maps["day->month"][dayCode] = monthCode.
	Maps map[string][]int32
	// Labels holds display names per level name, e.g.
	// Labels["country"][2] = "Italy". Optional.
	Labels map[string][]string
}

// Validate checks schema consistency, fact-table alignment and that every
// adjacent level pair of every dimension has a rollup map of the right size.
func (ds *Dataset) Validate() error {
	if ds.Schema == nil {
		return fmt.Errorf("storage: dataset has no schema")
	}
	if err := ds.Schema.Validate(); err != nil {
		return err
	}
	if ds.Facts == nil {
		return fmt.Errorf("storage: dataset has no fact table")
	}
	if err := ds.Facts.Validate(); err != nil {
		return err
	}
	if len(ds.Facts.Keys) != len(ds.Schema.Dimensions) {
		return fmt.Errorf("storage: fact table has %d dims, schema has %d", len(ds.Facts.Keys), len(ds.Schema.Dimensions))
	}
	for _, dim := range ds.Schema.Dimensions {
		// Maps required between all adjacent non-ALL levels; the map into
		// ALL is implicit (constant 0).
		for i := 0; i+2 < len(dim.Levels); i++ {
			from, to := dim.Levels[i], dim.Levels[i+1]
			name := schema.MapName(from.Name, to.Name)
			m, ok := ds.Maps[name]
			if !ok {
				return fmt.Errorf("storage: dataset missing rollup map %q", name)
			}
			if len(m) != from.Cardinality {
				return fmt.Errorf("storage: rollup map %q has %d entries, want %d", name, len(m), from.Cardinality)
			}
			for code, parent := range m {
				if parent < 0 || int(parent) >= to.Cardinality {
					return fmt.Errorf("storage: rollup map %q entry %d → %d out of range [0,%d)", name, code, parent, to.Cardinality)
				}
			}
		}
	}
	return nil
}

// MapChain returns the sequence of rollup arrays lifting dimension dim from
// level `from` to coarser level `to`. An empty chain means either from == to
// or to is the ALL level (whose key is the constant 0, needing no lookup).
func (ds *Dataset) MapChain(dim int, from, to int) ([][]int32, error) {
	if dim < 0 || dim >= len(ds.Schema.Dimensions) {
		return nil, fmt.Errorf("storage: dimension %d out of range", dim)
	}
	d := ds.Schema.Dimensions[dim]
	if from > to {
		return nil, fmt.Errorf("storage: cannot map %s level %d down to %d", d.Name, from, to)
	}
	if from < 0 || to >= len(d.Levels) {
		return nil, fmt.Errorf("storage: levels %d..%d out of range for %s", from, to, d.Name)
	}
	if to == len(d.Levels)-1 {
		return nil, nil // ALL: constant key, no lookups
	}
	var chain [][]int32
	for l := from; l < to; l++ {
		name := schema.MapName(d.Levels[l].Name, d.Levels[l+1].Name)
		m, ok := ds.Maps[name]
		if !ok {
			return nil, fmt.Errorf("storage: missing rollup map %q", name)
		}
		chain = append(chain, m)
	}
	return chain, nil
}
