package optimizer

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/obs"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// ComparisonKernel is the pricing-invariant half of an advisory problem:
// everything about (lattice, workload, candidate set) that no tariff can
// change. The lattice index, the candidate scalars (rows, sizes, lattice
// ids), the per-query answering lists with the exact cheapest-answering
// tie rule, and the duplicate-point groups of the deferred-maintenance
// accounting are all resolved here, exactly once. Cross-tariff studies —
// the paper's central exercise of re-pricing one view-selection problem
// under many cloud price structures — then bind the kernel to one tariff
// at a time via RepriceFor, which recomputes only the time and money
// scalars (O(candidates + queries + answering entries) of arithmetic, no
// lattice walks), instead of rebuilding the whole advisory stack per
// provider × instance × fleet cell.
//
// A kernel is immutable after construction and safe for concurrent use:
// many RepriceFor sessions (one per worker of a comparison fan-out) can
// share one kernel.
type ComparisonKernel struct {
	// Lat, W and Cands are the pinned problem. Cands is held as given;
	// candidate i of every bound session is Cands[i].
	Lat   *lattice.Lattice
	W     workload.Workload
	Cands []views.Candidate

	n  int // len(Cands)
	nq int // len(W.Queries)

	// Per-candidate scalars, indexed by candidate position.
	ids  []int
	rows []int64
	size []units.DataSize
	// group maps candidates sharing one lattice point to one serving
	// counter (deferred maintenance bills per point, not per duplicate);
	// groupMembers inverts it.
	group        []int
	groupMembers [][]int32

	baseRows int64
	baseSize units.DataSize

	// Per-query scalars.
	qFreq []int64

	// Answering lists in CSR layout: candidates that can answer query q
	// with strictly fewer rows than the base table are
	// ansCand[qOff[q]:qOff[q+1]], sorted by (rows, candidate index) — the
	// Evaluator's exact cheapest-answering tie order.
	qOff    []int32
	ansCand []int32
	// cand2q[i] lists the queries candidate i can answer (the "affected
	// queries" of an incremental move).
	cand2q [][]int32
}

// NewComparisonKernel pins the structure of an advisory problem. The
// candidate points and query points are validated against the lattice.
//
// The structure is built in slabs, not grown: a counting pass sizes the
// answering lists, and every array is then cut from one allocation per
// element type. The build is on every cache miss the daemon serves, and
// an append chain per candidate, per group and per query was a third of
// that miss's allocations.
func NewComparisonKernel(l *lattice.Lattice, w workload.Workload, cands []views.Candidate) (*ComparisonKernel, error) {
	if l == nil {
		return nil, fmt.Errorf("optimizer: comparison kernel needs a lattice")
	}
	obs.KernelBuilds.Inc()
	n, nq := len(cands), len(w.Queries)
	ints := make([]int, 2*n)
	int64s := make([]int64, n+nq)
	k := &ComparisonKernel{
		Lat:   l,
		W:     w,
		Cands: cands,
		n:     n,
		nq:    nq,
		ids:   ints[:n:n],
		group: ints[n:],
		rows:  int64s[:n:n],
		size:  make([]units.DataSize, n),
		qFreq: int64s[n:],
	}
	baseNode := l.NodeByID(0)
	k.baseRows = baseNode.Rows
	k.baseSize = baseNode.Size

	// What the counting pass needs, from one slab: qOff, which stays, and
	// four that do not — each query's lattice id; order, the candidates
	// that can ever be assigned; each candidate's answerable-query count;
	// and each group's first member, then its size.
	pre := make([]int32, 2*nq+1+3*n)
	k.qOff, pre = pre[:nq+1:nq+1], pre[nq+1:]
	qids, pre := pre[:nq:nq], pre[nq:]
	order, answers, perGroup := pre[:0:n], pre[n:2*n:2*n], pre[2*n:2*n]

	for i, c := range cands {
		id, err := l.ID(c.Point)
		if err != nil {
			return nil, fmt.Errorf("optimizer: candidate %d: %w", i, err)
		}
		k.ids[i] = id
		node := l.NodeByID(id)
		k.rows[i] = node.Rows
		k.size[i] = node.Size
		// Duplicate points share a group, numbered by first appearance. A
		// pool is a handful of candidates, nearly always distinct, so a
		// scan of the groups' first members stands in for a map.
		g := 0
		for g < len(perGroup) && k.ids[perGroup[g]] != id {
			g++
		}
		if g == len(perGroup) {
			perGroup = append(perGroup, int32(i))
		}
		k.group[i] = g
		// Only candidates that strictly beat the base can ever be
		// assigned (CheapestAnswering replaces on fewer rows only).
		if node.Rows < baseNode.Rows {
			order = append(order, int32(i))
		}
	}
	// (rows, candidate index) — the Evaluator's exact cheapest-answering
	// tie order — is a total order, so every query's answering list is a
	// subsequence of this one and is never sorted on its own.
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(k.rows[a], k.rows[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for q, query := range w.Queries {
		qid, err := l.ID(query.Point)
		if err != nil {
			return nil, fmt.Errorf("optimizer: query %d: %w", q, err)
		}
		qids[q] = int32(qid)
		k.qFreq[q] = int64(query.Frequency)
		k.qOff[q+1] = k.qOff[q]
		for _, i := range order {
			if l.CanAnswerID(k.ids[i], qid) {
				k.qOff[q+1]++
				answers[i]++
			}
		}
	}
	clear(perGroup)
	for _, g := range k.group {
		perGroup[g]++
	}

	// The lists themselves, each cut empty at its final capacity so that
	// the appends below fill it in place.
	total := int(k.qOff[nq])
	lists := make([]int32, 2*total+n)
	heads := make([][]int32, n+len(perGroup))
	k.ansCand, lists = lists[:0:total], lists[total:]
	k.cand2q, k.groupMembers = heads[:n:n], heads[n:]
	for i, c := range answers {
		k.cand2q[i], lists = lists[:0:c], lists[c:]
	}
	for g, c := range perGroup {
		k.groupMembers[g], lists = lists[:0:c], lists[c:]
	}
	for i, g := range k.group {
		k.groupMembers[g] = append(k.groupMembers[g], int32(i))
	}
	for q, qid := range qids {
		for _, i := range order {
			if l.CanAnswerID(k.ids[i], int(qid)) {
				k.ansCand = append(k.ansCand, i)
				k.cand2q[i] = append(k.cand2q[i], int32(q))
			}
		}
	}
	return k, nil
}

// sessionScalars are the tariff-dependent scalars one RepriceFor binding
// derives from the kernel: every duration the estimator would compute,
// per candidate and per query, against one concrete cluster.
type sessionScalars struct {
	// Per-candidate times on the bound cluster.
	maint   []time.Duration // MaintenanceTime (Formula 11 per view)
	mat     []time.Duration // MaterializationTime (Formula 7 per view)
	perRun  []time.Duration // maint / MaintenanceRuns (exact)
	candJob []time.Duration // TimeForJob(candidate size): one scan of the view
	// Per-query times.
	qBase []time.Duration // freq × TimeForJob(base size)
	// ansTerm parallels the kernel's ansCand CSR array:
	// freq × TimeForJob(candidate size) per answering entry.
	ansTerm []time.Duration

	baseJob  time.Duration // TimeForJob(base size), unweighted
	deferred bool
	runs     int64
}

// bindScalars prices the kernel's pinned structure on the evaluator's
// cluster — the whole tariff-dependent rebuild. The per-candidate terms
// replicate the estimator's formulas over the pinned sizes (one
// TimeForJob per distinct volume) instead of calling back into the
// estimator's per-point lattice lookups; the kernel equivalence property
// tests pin them bit-equal to Estimator.MaintenanceTime /
// MaterializationTime and the per-query scan time.
func (k *ComparisonKernel) bindScalars(ev *Evaluator, arena []time.Duration) sessionScalars {
	// arena holds 4·n + nq + len(ansCand) durations, one cut per array.
	next := func(n int) []time.Duration {
		out := arena[:n:n]
		arena = arena[n:]
		return out
	}
	s := sessionScalars{
		maint:    next(k.n),
		mat:      next(k.n),
		perRun:   next(k.n),
		candJob:  next(k.n),
		qBase:    next(k.nq),
		ansTerm:  next(len(k.ansCand)),
		deferred: ev.Est.Policy == views.DeferredMaintenance,
		runs:     int64(ev.Est.MaintenanceRuns),
	}
	cl := ev.Est.Cl
	s.baseJob = cl.TimeForJob(k.baseSize)
	// Each maintenance run scans the arriving delta plus the view
	// (Formula 11); materialization is one base scan per view (Formula 7).
	delta := k.baseSize.MulFloat(ev.Est.UpdateRatio)
	for i := 0; i < k.n; i++ {
		perRunJob := cl.TimeForJob(delta + k.size[i])
		s.maint[i] = time.Duration(ev.Est.MaintenanceRuns) * perRunJob
		s.mat[i] = s.baseJob
		if s.runs > 0 {
			s.perRun[i] = s.maint[i] / time.Duration(s.runs)
		}
		s.candJob[i] = cl.TimeForJob(k.size[i])
	}
	for q := 0; q < k.nq; q++ {
		s.qBase[q] = time.Duration(k.qFreq[q]) * s.baseJob
		for idx := k.qOff[q]; idx < k.qOff[q+1]; idx++ {
			s.ansTerm[idx] = time.Duration(k.qFreq[q]) * s.candJob[k.ansCand[idx]]
		}
	}
	return s
}
