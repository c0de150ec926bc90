// Package views provides the materialized-view machinery the paper builds
// on: candidate generation (the "existing materialized view selection
// method [8]" of Section 2.3, implemented as HRU-style greedy
// benefit-per-unit-space selection over the cuboid lattice), analytical
// estimation of materialization / maintenance / query-processing times,
// and incremental view maintenance for insert batches.
package views

import (
	"fmt"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/lattice"
	"vmcloud/internal/units"
	"vmcloud/internal/workload"
)

// Candidate is a view the optimizer may decide to materialize.
type Candidate struct {
	// Point is the cuboid.
	Point lattice.Point
	// Rows and Size are the lattice estimates.
	Rows int64
	Size units.DataSize
	// Benefit is the HRU benefit (frequency-weighted rows saved across the
	// workload) recorded when the candidate was generated.
	Benefit int64
}

// GenerateCandidates runs greedy benefit-per-unit-space selection (Harinarayan,
// Rajaraman & Ullman's algorithm, the standard the paper's reference [8]
// builds on) and returns up to k candidate views, in selection order.
// Views with no positive benefit for the workload are never returned; the
// base cuboid is excluded (materializing it duplicates the fact table).
//
// A round's benefit of node v is Σ_q freq × max(0, curRows[q] − rows(v))
// over the queries v can answer, where curRows[q] is the scan size of
// q's cheapest chosen source. The loop maintains that sum per node
// instead of recomputing it: a pick lowers curRows for a few queries,
// and only those queries' answerers see their benefit change. The
// maintained value equals the recomputed one exactly — curRows only ever
// falls, every delta is an int64 (addition is associative even where it
// wraps) — so the argmax, its first-by-node-id tie rule and the recorded
// benefits are those of the round-by-round definition.
func GenerateCandidates(l *lattice.Lattice, w workload.Workload, k int) ([]Candidate, error) {
	cands, _, err := generateCandidates(l, w, k)
	return cands, err
}

// hruQuery is one query's routing state in the candidate loop.
type hruQuery struct {
	id      int   // lattice node id of the query point
	freq    int64 // monthly executions
	curRows int64 // rows of the cheapest chosen source (initially the base table)
}

// generateCandidates is GenerateCandidates plus its work count: the
// number of answerer-list entries visited, at most Σ_q |answerers(q)| ×
// (1 + picks that lowered curRows[q]).
func generateCandidates(l *lattice.Lattice, w workload.Workload, k int) ([]Candidate, int, error) {
	if err := w.Validate(l); err != nil {
		return nil, 0, err
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("views: non-positive candidate budget %d", k)
	}
	nodes := l.Nodes()
	baseRows := nodes[0].Rows
	// Answerer lists in CSR form: ansIDs[ansOff[q]:ansOff[q+1]] are the
	// nodes that can answer query q — its strict ancestors and itself,
	// without the base. A point has Π(level+1) finer-or-equal nodes, so
	// the slab is sized exactly before it is filled.
	qs := make([]hruQuery, len(w.Queries))
	ansOff := make([]int, len(qs)+1)
	for i, q := range w.Queries {
		id, err := l.ID(q.Point)
		if err != nil {
			return nil, 0, err
		}
		qs[i] = hruQuery{id: id, freq: int64(q.Frequency), curRows: baseRows}
		finerOrEqual := 1
		for _, lv := range q.Point {
			finerOrEqual *= lv + 1
		}
		ansOff[i+1] = ansOff[i] + finerOrEqual - 1
	}
	ansIDs := make([]int, 0, ansOff[len(qs)])
	benefit := make([]int64, len(nodes))
	for i := range qs {
		// AncestorIDs lists the base (id 0) first; the query's own node
		// takes its slot. A query at the base has no ancestors and no
		// answerer but the base itself.
		if ansIDs = l.AncestorIDs(qs[i].id, ansIDs); len(ansIDs) > ansOff[i] {
			ansIDs[ansOff[i]] = qs[i].id
		}
	}
	visited := len(ansIDs)
	for i := range qs {
		for _, u := range ansIDs[ansOff[i]:ansOff[i+1]] {
			if r := nodes[u].Rows; r < baseRows {
				benefit[u] += qs[i].freq * (baseRows - r)
			}
		}
	}
	selected := make([]Candidate, 0, min(k, len(nodes)-1))
	for len(selected) < k {
		// A chosen node needs no mark: every query it answers now scans
		// at most its rows, so its maintained benefit is exactly zero.
		best := -1
		var bestPerByte float64
		for id := 1; id < len(nodes); id++ {
			b := benefit[id]
			if b <= 0 {
				continue
			}
			perByte := float64(b) / float64(nodes[id].Size)
			if best == -1 || perByte > bestPerByte {
				best, bestPerByte = id, perByte
			}
		}
		if best == -1 {
			break // nothing beneficial left
		}
		n := nodes[best]
		selected = append(selected, Candidate{
			Point:   n.Point,
			Rows:    n.Rows,
			Size:    n.Size,
			Benefit: benefit[best],
		})
		for i := range qs {
			if q := &qs[i]; n.Rows < q.curRows && l.CanAnswerID(best, q.id) {
				answerers := ansIDs[ansOff[i]:ansOff[i+1]]
				lowerQuery(benefit, nodes, answerers, q.freq, q.curRows, n.Rows)
				visited += len(answerers)
				q.curRows = n.Rows
			}
		}
	}
	return selected, visited, nil
}

// lowerQuery re-prices one query's answerers after its cheapest source
// fell from old to cur rows: answerer u was credited freq × (old −
// rows(u)) when rows(u) < old, and is now owed freq × (cur − rows(u))
// when rows(u) < cur, nothing otherwise.
//
//mvlint:hotpath
func lowerQuery(benefit []int64, nodes []lattice.Node, answerers []int, freq, old, cur int64) {
	for _, u := range answerers {
		if r := nodes[u].Rows; r < old {
			benefit[u] -= freq * (old - max(cur, r))
		}
	}
}

// Points extracts the lattice points of a candidate list.
func Points(cands []Candidate) []lattice.Point {
	out := make([]lattice.Point, len(cands))
	for i, c := range cands {
		out[i] = c.Point
	}
	return out
}

// MaintenancePolicy selects when views are refreshed.
type MaintenancePolicy int

const (
	// ImmediateMaintenance refreshes every view in every maintenance
	// window (the paper's model: querying by day, maintenance by night).
	ImmediateMaintenance MaintenancePolicy = iota
	// DeferredMaintenance refreshes a view lazily, just before a query
	// actually reads it (Zhou et al.'s lazy maintenance, the paper's
	// reference [27]): a view pays for at most as many refreshes as it
	// serves query executions in the period.
	DeferredMaintenance
)

// Estimator prices view operations in time on a concrete cluster, feeding
// the paper's computing-cost formulas (Section 4.2).
type Estimator struct {
	Lat *lattice.Lattice
	Cl  *cluster.Cluster
	// UpdateRatio is the fraction of the base volume arriving as fresh data
	// per maintenance run (drives incremental-maintenance cost).
	UpdateRatio float64
	// MaintenanceRuns is the number of maintenance windows per month (the
	// paper separates day-time querying from night-time maintenance).
	MaintenanceRuns int
	// Policy selects immediate (default) or deferred maintenance.
	Policy MaintenancePolicy
}

// NewEstimator builds an estimator with the defaults used by the
// experiments: 5% update ratio, 4 maintenance runs per month.
func NewEstimator(l *lattice.Lattice, cl *cluster.Cluster) *Estimator {
	return &Estimator{Lat: l, Cl: cl, UpdateRatio: 0.05, MaintenanceRuns: 4}
}

// baseSize returns the base cuboid's data volume.
func (e *Estimator) baseSize() units.DataSize {
	n, _ := e.Lat.Node(e.Lat.Base())
	return n.Size
}

// MaterializationTime estimates t_materialization(V_k): one job scanning
// the base table and writing the view (Formula 7's per-view term).
func (e *Estimator) MaterializationTime(p lattice.Point) time.Duration {
	return e.Cl.TimeForJob(e.baseSize())
}

// TotalMaterializationTime is Formula 7: the sum over the view set.
func (e *Estimator) TotalMaterializationTime(ps []lattice.Point) time.Duration {
	var total time.Duration
	for _, p := range ps {
		total += e.MaterializationTime(p)
	}
	return total
}

// MaintenanceTime estimates t_maintenance(V_k) per month: each run scans
// the arriving delta and merges it into the view (incremental maintenance,
// so cost scales with delta + view size, not with the base).
func (e *Estimator) MaintenanceTime(p lattice.Point) time.Duration {
	n, err := e.Lat.Node(p)
	if err != nil {
		return 0
	}
	delta := e.baseSize().MulFloat(e.UpdateRatio)
	perRun := e.Cl.TimeForJob(delta + n.Size)
	return time.Duration(e.MaintenanceRuns) * perRun
}

// TotalMaintenanceTime is Formula 11: the sum over the view set.
func (e *Estimator) TotalMaintenanceTime(ps []lattice.Point) time.Duration {
	var total time.Duration
	for _, p := range ps {
		total += e.MaintenanceTime(p)
	}
	return total
}

// MaintenanceTimeForWorkload prices maintenance under the estimator's
// policy. Immediate maintenance is workload-independent (Formula 11);
// deferred maintenance caps each view's refresh count at the number of
// query executions it actually serves under cheapest-answering routing.
func (e *Estimator) MaintenanceTimeForWorkload(ps []lattice.Point, w workload.Workload) time.Duration {
	if e.Policy == ImmediateMaintenance {
		return e.TotalMaintenanceTime(ps)
	}
	// Count monthly executions served per view.
	served := make(map[string]int, len(ps))
	for _, q := range w.Queries {
		src, _ := e.Lat.CheapestAnswering(ps, q.Point)
		if src.Equal(e.Lat.Base()) {
			continue
		}
		served[e.Lat.Name(src)] += q.Frequency
	}
	if e.MaintenanceRuns <= 0 {
		return 0
	}
	var total time.Duration
	for _, p := range ps {
		runs := e.MaintenanceRuns
		if hits := served[e.Lat.Name(p)]; hits < runs {
			runs = hits
		}
		if runs <= 0 {
			continue
		}
		perRun := e.MaintenanceTime(p) / time.Duration(e.MaintenanceRuns)
		total += time.Duration(runs) * perRun
	}
	return total
}

// WorkloadTime is Formula 9: Σ t_iV over the workload (frequency-weighted),
// per month.
func (e *Estimator) WorkloadTime(w workload.Workload, materialized []lattice.Point) time.Duration {
	return w.ScanTime(e.Lat, materialized, e.Cl.TimeForJob)
}

// ViewsSize sums the estimated stored size of the given points (the
// duplicated data of Section 4.3).
func (e *Estimator) ViewsSize(ps []lattice.Point) units.DataSize {
	var total units.DataSize
	for _, p := range ps {
		if n, err := e.Lat.Node(p); err == nil {
			total += n.Size
		}
	}
	return total
}
