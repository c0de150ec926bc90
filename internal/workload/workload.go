// Package workload models query workloads: aggregation queries pinned to
// lattice points with monthly execution frequencies. It ships the paper's
// experimental workload — ten "total profit per <time level> and <geo
// level>" queries (Section 6.1) — and prefix subsets of 3 and 5 queries.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/units"
)

// Query is one aggregation query of the workload.
type Query struct {
	// Name labels the query, e.g. "profit per year and country".
	Name string
	// Point is the lattice cuboid the query groups by.
	Point lattice.Point
	// Frequency is the number of executions per billing month (≥ 1).
	Frequency int
}

// Workload is an ordered set of queries.
type Workload struct {
	Queries []Query
}

// Validate checks the workload against a lattice.
func (w Workload) Validate(l *lattice.Lattice) error {
	if len(w.Queries) == 0 {
		return errEmpty
	}
	for i := range w.Queries {
		if _, err := w.check(l, i); err != nil {
			return err
		}
	}
	return nil
}

var errEmpty = errors.New("workload: empty workload")

// check validates query i against l and returns its lattice id.
func (w Workload) check(l *lattice.Lattice, i int) (int, error) {
	q := &w.Queries[i]
	if q.Frequency < 1 {
		return 0, fmt.Errorf("workload: query %d (%s) has frequency %d", i, q.Name, q.Frequency)
	}
	id, err := l.ID(q.Point)
	if err != nil {
		return 0, fmt.Errorf("workload: query %d (%s): %w", i, q.Name, err)
	}
	return id, nil
}

// Resolve validates the workload against l, as Validate does, and
// returns each query's lattice id, appended to ids, with the
// workload's monthly result egress (ResultBytes): a cold build checks
// and looks up each query point once and then reads the ids.
func (w Workload) Resolve(l *lattice.Lattice, ids []int) ([]int, units.DataSize, error) {
	if len(w.Queries) == 0 {
		return ids, 0, errEmpty
	}
	var egress units.DataSize
	ids = slices.Grow(ids, len(w.Queries))
	for i, q := range w.Queries {
		id, err := w.check(l, i)
		if err != nil {
			return ids, 0, err
		}
		ids = append(ids, id)
		egress += l.NodeByID(id).ResultSize.MulInt(int64(q.Frequency))
	}
	return ids, egress, nil
}

// ResultBytes estimates the monthly query-result egress volume: each
// execution returns one row per group at the schema's row width (the s(Ri)
// of the paper's Formula 3). Note this uses the cuboid's aggregated group
// count, not its scan size — a base-grain aggregation returns distinct
// (day, department) groups, not raw fact rows.
func (w Workload) ResultBytes(l *lattice.Lattice) (units.DataSize, error) {
	var total units.DataSize
	for _, q := range w.Queries {
		n, err := l.Node(q.Point)
		if err != nil {
			return 0, err
		}
		total += n.ResultSize.MulInt(int64(q.Frequency))
	}
	return total, nil
}

// salesOrder lists the paper's ten queries, ordered so that the 3- and
// 5-query workloads of Section 6.2 are prefixes: coarse, cheap queries
// first, the base-grain query and the grand total last.
var salesOrder = [][2]string{
	{"year", "country"},
	{"month", "country"},
	{"year", "region"},
	{"month", "region"},
	{"day", "country"},
	{"year", "department"},
	{"month", "department"},
	{"day", "region"},
	{"day", "department"},
	{"all", "all"},
}

// Sales builds the n-query sales workload (n ∈ 1..10) over the lattice.
// All frequencies are 1, matching the paper's single-run-per-query setup.
func Sales(l *lattice.Lattice, n int) (Workload, error) {
	if err := checkSalesSize(n); err != nil {
		return Workload{}, err
	}
	var w Workload
	for _, lv := range salesOrder[:n] {
		p, err := l.PointOf(lv[0], lv[1])
		if err != nil {
			return Workload{}, err
		}
		w.Queries = append(w.Queries, Query{
			Name:      fmt.Sprintf("profit per %s and %s", lv[0], lv[1]),
			Point:     p,
			Frequency: 1,
		})
	}
	return w, nil
}

// Random generates an n-query workload at uniformly random lattice points
// with frequencies in [1, maxFreq], deterministically from the seed. Used
// for randomized end-to-end testing of the selection machinery on
// arbitrary schemas.
func Random(l *lattice.Lattice, n int, maxFreq int, seed int64) (Workload, error) {
	if n < 1 {
		return Workload{}, fmt.Errorf("workload: need at least one query, got %d", n)
	}
	if maxFreq < 1 {
		return Workload{}, fmt.Errorf("workload: maxFreq %d < 1", maxFreq)
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := l.Nodes()
	var w Workload
	for len(w.Queries) < n {
		node := nodes[rng.Intn(len(nodes))]
		w.Queries = append(w.Queries, Query{
			Name:      fmt.Sprintf("rand:%s", l.Name(node.Point)),
			Point:     node.Point,
			Frequency: rng.Intn(maxFreq) + 1,
		})
	}
	return w, nil
}

// ScanTime computes the per-month processing time of the workload when each
// query scans its cheapest answering source among the materialized points
// (Formula 9's t_iV summation): Σ freq × time(scan cheapest).
// timeFor converts a scanned volume into cluster time.
func (w Workload) ScanTime(l *lattice.Lattice, materialized []lattice.Point, timeFor func(units.DataSize) time.Duration) time.Duration {
	var total time.Duration
	for _, q := range w.Queries {
		_, node := l.CheapestAnswering(materialized, q.Point)
		total += time.Duration(int64(q.Frequency)) * timeFor(node.Size)
	}
	return total
}
