package engine

import (
	"fmt"
	"slices"
	"sort"

	"vmcloud/internal/lattice"
	"vmcloud/internal/storage"
)

// Executor owns a dataset, its lattice, and a set of materialized views,
// and builds each view from the cheapest table able to answer it (the
// smallest finer view, else the base fact table) — the routing the paper's
// Formula 9 assumes for queries.
type Executor struct {
	DS  *storage.Dataset
	Lat *lattice.Lattice

	views []*storage.Table // in first-materialization order: the routing tie-break
}

// NewExecutor builds an executor over the dataset.
func NewExecutor(ds *storage.Dataset) (*Executor, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	lat, err := lattice.New(ds.Schema, int64(ds.Facts.Rows()))
	if err != nil {
		return nil, err
	}
	return &Executor{DS: ds, Lat: lat}, nil
}

// Materialize computes and retains the view at point p, sourcing from the
// cheapest already-materialized finer view (or the base table). Returns the
// materialization result. Re-materializing an existing view overwrites it
// in place, keeping its routing precedence.
func (e *Executor) Materialize(p lattice.Point) (*Result, error) {
	if p.Equal(e.Lat.Base()) {
		return nil, fmt.Errorf("engine: refusing to materialize the base cuboid")
	}
	src := e.cheapestSource(p)
	res, err := Aggregate(e.DS, src, p, Options{Name: "mv:" + e.Lat.Name(p)})
	if err != nil {
		return nil, err
	}
	if i := e.find(p); i >= 0 {
		e.views[i] = res.Table
	} else {
		e.views = append(e.views, res.Table)
	}
	return res, nil
}

// find returns the index of the view at p, or -1.
func (e *Executor) find(p lattice.Point) int {
	return slices.IndexFunc(e.views, func(t *storage.Table) bool { return t.Point.Equal(p) })
}

// Views returns the currently materialized points, sorted by name.
func (e *Executor) Views() []lattice.Point {
	out := make([]lattice.Point, len(e.views))
	for i, t := range e.views {
		out[i] = t.Point
	}
	sort.Slice(out, func(i, j int) bool { return e.Lat.Name(out[i]) < e.Lat.Name(out[j]) })
	return out
}

// View returns the materialized table at p, if present.
func (e *Executor) View(p lattice.Point) (*storage.Table, bool) {
	if i := e.find(p); i >= 0 {
		return e.views[i], true
	}
	return nil, false
}

// cheapestSource returns the smallest table (by actual rows) able to answer
// point p; the base fact table always qualifies. A view exactly at p counts:
// answering from it is a plain scan. Ties go to the base table, then to the
// first-materialized view — the slice order lattice.CheapestAnswering
// follows — so the route never depends on map iteration order.
func (e *Executor) cheapestSource(p lattice.Point) *storage.Table {
	best := e.DS.Facts
	for _, t := range e.views {
		if t.Point.FinerOrEqual(p) && t.Rows() < best.Rows() {
			best = t
		}
	}
	return best
}
