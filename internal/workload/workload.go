// Package workload models query workloads: aggregation queries pinned to
// lattice points with monthly execution frequencies. It ships the paper's
// experimental workload — ten "total profit per <time level> and <geo
// level>" queries (Section 6.1) — and prefix subsets of 3 and 5 queries.
package workload

import (
	"fmt"
	"math/rand"
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
		return fmt.Errorf("workload: empty workload")
	}
	for i, q := range w.Queries {
		if q.Frequency < 1 {
			return fmt.Errorf("workload: query %d (%s) has frequency %d", i, q.Name, q.Frequency)
		}
		if _, err := l.Node(q.Point); err != nil {
			return fmt.Errorf("workload: query %d (%s): %w", i, q.Name, err)
		}
	}
	return nil
}

// TotalFrequency sums the monthly execution counts.
func (w Workload) TotalFrequency() int {
	n := 0
	for _, q := range w.Queries {
		n += q.Frequency
	}
	return n
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

// PigScript renders the query as a Piglet script over the denormalized
// sales relation — how the paper expressed its workload (Pig Latin on
// Hadoop). The grand-total query uses GROUP ALL.
func (q Query) PigScript(l *lattice.Lattice) (string, error) {
	if len(q.Point) != 2 {
		return "", fmt.Errorf("workload: PigScript supports the 2-dimensional sales schema, point %v", q.Point)
	}
	timeLevel := l.Schema.Dimensions[0].Levels[q.Point[0]].Name
	geoLevel := l.Schema.Dimensions[1].Levels[q.Point[1]].Name
	var keys []string
	if timeLevel != "all" {
		keys = append(keys, timeLevel)
	}
	if geoLevel != "all" {
		keys = append(keys, geoLevel)
	}
	var grouping string
	switch len(keys) {
	case 0:
		// Grand total: Pig 0.7's GROUP rel ALL.
		grouping = "GROUP raw ALL"
	case 1:
		grouping = "GROUP raw BY " + keys[0]
	default:
		grouping = "GROUP raw BY (" + join(keys, ", ") + ")"
	}
	return fmt.Sprintf(`raw = LOAD 'sales' AS (day, month, year, department, region, country, profit);
grp = %s;
out = FOREACH grp GENERATE group, SUM(raw.profit) AS total;
STORE out INTO 'result';
`, grouping), nil
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
