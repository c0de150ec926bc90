package optimizer

import (
	"math/rand"
	"slices"
	"testing"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// referenceSource is cheapest-answering routing by brute force: the
// selected candidate with the fewest rows that can answer query, ties to
// the lowest candidate index, and the base table (-1) unless strictly
// beaten.
func referenceSource(l *lattice.Lattice, cands []views.Candidate, sel []bool, query lattice.Point) int {
	best, bestRows := -1, l.NodeByID(0).Rows
	for c, on := range sel {
		if !on || !l.CanAnswer(cands[c].Point, query) {
			continue
		}
		node, err := l.Node(cands[c].Point)
		if err != nil {
			panic(err)
		}
		if node.Rows < bestRows {
			best, bestRows = c, node.Rows
		}
	}
	return best
}

// routingPool draws a candidate pool of distinct points that holds the
// routing's tie cases: every distinct pair of lattice points with equal
// rows (below the base's) that the lattice has, up to pairs of them, both
// in; random other non-base points, up to size or the lattice's count;
// and dups more that each tie a point already drawn on rows, where the
// lattice has one left.
func routingPool(t *testing.T, rng *rand.Rand, l *lattice.Lattice, pairs, size, dups int) []views.Candidate {
	t.Helper()
	nodes := l.Nodes()
	baseRows := nodes[0].Rows
	drawn := make([]bool, len(nodes))
	var cands []views.Candidate
	draw := func(k int) {
		drawn[k] = true
		cands = append(cands, views.Candidate{Point: nodes[k].Point, Rows: nodes[k].Rows, Size: nodes[k].Size})
	}
	byRows := map[int64]int{}
	for _, k := range rng.Perm(len(nodes)) {
		n := nodes[k]
		if k == 0 || n.Rows >= baseRows || len(cands) >= 2*pairs {
			continue
		}
		if j, ok := byRows[n.Rows]; ok {
			if j >= 0 {
				draw(j)
				draw(k)
				byRows[n.Rows] = -1
			}
			continue
		}
		byRows[n.Rows] = k
	}
	if len(cands) == 0 {
		t.Fatal("lattice has no two distinct points with equal rows")
	}
	for _, k := range rng.Perm(len(nodes)) {
		if k > 0 && !drawn[k] && len(cands) < size {
			draw(k)
		}
	}
	for d := 0; d < dups; d++ {
		for _, k := range rng.Perm(len(nodes)) {
			if k > 0 && !drawn[k] && slices.ContainsFunc(cands, func(c views.Candidate) bool { return c.Rows == nodes[k].Rows }) {
				draw(k)
				break
			}
		}
	}
	rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	return cands
}

// TestRoutingMatchesReference walks random move sequences and, after
// every Add and Drop, holds each query's source to referenceSource. Time
// and bill alone would not catch a routing error between two views of
// equal rows and size, which a tie makes.
func TestRoutingMatchesReference(t *testing.T) {
	cases := []struct {
		name         string
		dims, levels int
		factRows     int64
		queries      int
		dups         int
	}{
		{"2x4 small fact table", 2, 4, 200_000, 12, 3},
		{"3x4", 3, 4, 50_000_000, 30, 2},
		{"4x4 search-large shape", 4, 4, 1_000_000_000, 40, 4},
	}
	for _, tc := range cases {
		for policy, policyName := range []string{views.ImmediateMaintenance: "immediate", views.DeferredMaintenance: "deferred"} {
			policy := views.MaintenancePolicy(policy)
			t.Run(tc.name+"/"+policyName, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.dims*100 + tc.levels*10 + int(policy))))
				sch, err := schema.Synthetic(tc.dims, tc.levels)
				if err != nil {
					t.Fatal(err)
				}
				l, err := lattice.New(sch, tc.factRows)
				if err != nil {
					t.Fatal(err)
				}
				w, err := workload.Random(l, tc.queries, 6, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				cl, err := cluster.New(pricing.AWS2012(), "small", 2)
				if err != nil {
					t.Fatal(err)
				}
				est := views.NewEstimator(l, cl)
				est.MaintenanceRuns = 3
				est.Policy = policy
				ev, err := NewEvaluator(est, w, costmodel.Plan{Cluster: cl, Months: 1, DatasetSize: l.NodeByID(0).Size})
				if err != nil {
					t.Fatal(err)
				}
				cands := routingPool(t, rng, l, 4, 16, tc.dups)
				sess, err := NewSession(ev, cands)
				if err != nil {
					t.Fatal(err)
				}
				inc := sess.Engine()
				sel := make([]bool, len(cands))
				for step := 0; step < 400; step++ {
					i := rng.Intn(len(cands))
					toggle(inc, i)
					sel[i] = !sel[i]
					for q, query := range w.Queries {
						at := inc.assigned[q]
						if at < inc.k.qOff[q] || at > inc.k.qOff[q+1] {
							t.Fatalf("step %d: query %d routed to position %d outside its list [%d, %d]",
								step, q, at, inc.k.qOff[q], inc.k.qOff[q+1])
						}
						if got, want := int(inc.source(q, at)), referenceSource(l, cands, sel, query.Point); got != want {
							t.Fatalf("step %d, flip of %d, sel %v: query %d (%v) routed to %d, want %d",
								step, i, sel, q, query.Point, got, want)
						}
					}
				}
			})
		}
	}
}
