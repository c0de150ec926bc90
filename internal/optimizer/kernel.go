package optimizer

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/obs"
	"vmcloud/internal/reuse"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// ComparisonKernel is the pricing-invariant half of an advisory problem:
// everything about (lattice, workload, candidate set) that no tariff can
// change. The lattice index, the candidate scalars (rows, sizes, lattice
// ids) and the per-query answering lists with the exact
// cheapest-answering tie rule are all resolved here, exactly once. A
// pool names each lattice point at most once, as views.GenerateCandidates
// builds it, so every per-candidate count — deferred maintenance's
// served executions among them — is a per-point count. Cross-tariff
// studies — the paper's central exercise of re-pricing one
// view-selection problem under many cloud price structures — then bind
// the kernel to one tariff at a time via RepriceFor, which recomputes
// only the time and money scalars (O(candidates + queries + answering
// entries) of arithmetic, no lattice walks), instead of rebuilding the
// whole advisory stack per provider × instance × fleet cell.
//
// A kernel is immutable after construction and safe for concurrent use:
// many RepriceFor sessions (one per cell of a comparison grid) can
// share one kernel.
type ComparisonKernel struct {
	// Lat and Cands are the pinned problem, with the workload's queries
	// resolved below. Cands is held as given; candidate i of every bound
	// session is Cands[i].
	Lat   *lattice.Lattice
	Cands []views.Candidate

	n  int // len(Cands)
	nq int // the workload's query count

	// Per-candidate scalars, indexed by candidate position.
	ids  []int
	rows []int64
	size []units.DataSize

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
	// queries" of an incremental move); cand2pos[i] parallels it with
	// candidate i's index into ansCand for each, so a move reads its
	// answering entry without searching the list.
	cand2q   [][]int32
	cand2pos [][]int32

	// The slabs the arrays above are cut from, kept whole so that a
	// kernel pinned again (Pin) cuts its arrays from them.
	int64s []int64
	pre    []int32
	lists  []int32
	heads  [][]int32
}

// NewComparisonKernel pins the structure of an advisory problem. The
// candidate points and query points are validated against the lattice,
// and a pool that names one point twice is rejected.
func NewComparisonKernel(l *lattice.Lattice, w workload.Workload, cands []views.Candidate) (*ComparisonKernel, error) {
	k := new(ComparisonKernel)
	if err := k.Pin(l, w, nil, cands); err != nil {
		return nil, err
	}
	return k, nil
}

// Pin makes k the kernel NewComparisonKernel builds for the problem,
// on k's own arrays: a kernel pinned again reuses them, so everything
// read from it before must no longer be used. qids are the workload's
// query ids as workload.Resolve returns them, which Pin does not check
// again; nil has Pin look each query point up and validate it.
//
// The structure is built in slabs, not grown: a counting pass sizes the
// answering lists, and every array is then cut from one allocation per
// element type. The build is on every cache miss the daemon serves, and
// an append chain per candidate and per query was a third of
// that miss's allocations.
func (k *ComparisonKernel) Pin(l *lattice.Lattice, w workload.Workload, qids []int, cands []views.Candidate) error {
	if l == nil {
		return fmt.Errorf("optimizer: comparison kernel needs a lattice")
	}
	obs.KernelBuilds.Inc()
	n, nq := len(cands), len(w.Queries)
	// Each query's answerers, as a bit mask over order, 32 bits a word.
	mw := (n + 31) / 32
	int64s := reuse.Zeroed(k.int64s, n+nq)
	// What the counting pass needs, from one slab: qOff, which stays, and
	// three that do not — order, the candidates that can ever be
	// assigned; each candidate's answerable-query count; and the
	// answerer masks the fill pass reads instead of asking the lattice
	// again.
	pre := reuse.Zeroed(k.pre, nq+1+2*n+nq*mw)
	lists, heads := k.lists, k.heads
	*k = ComparisonKernel{
		Lat:    l,
		Cands:  cands,
		n:      n,
		nq:     nq,
		ids:    reuse.Zeroed(k.ids, n),
		rows:   int64s[:n:n],
		size:   reuse.Zeroed(k.size, n),
		qFreq:  int64s[n:],
		int64s: int64s,
		pre:    pre,
	}
	baseNode := l.NodeByID(0)
	k.baseRows = baseNode.Rows
	k.baseSize = baseNode.Size

	k.qOff, pre = pre[:nq+1:nq+1], pre[nq+1:]
	order, pre := pre[:0:n], pre[n:]
	answers, masks := pre[:n:n], pre[n:]

	for i, c := range cands {
		id, err := l.ID(c.Point)
		if err != nil {
			return fmt.Errorf("optimizer: candidate %d: %w", i, err)
		}
		// A pool is a few dozen candidates, so a scan of the earlier ids
		// stands in for a map.
		if j := slices.Index(k.ids[:i], id); j >= 0 {
			return fmt.Errorf("optimizer: candidate %d repeats candidate %d's point %v", i, j, c.Point)
		}
		k.ids[i] = id
		node := l.NodeByID(id)
		k.rows[i] = node.Rows
		k.size[i] = node.Size
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
		var qid int
		if qids != nil {
			qid = qids[q]
		} else {
			var err error
			if qid, err = l.ID(query.Point); err != nil {
				return fmt.Errorf("optimizer: query %d: %w", q, err)
			}
		}
		k.qFreq[q] = int64(query.Frequency)
		k.qOff[q+1] = k.qOff[q]
		mask := masks[q*mw : (q+1)*mw]
		for j, i := range order {
			if l.CanAnswerID(k.ids[i], qid) {
				k.qOff[q+1]++
				answers[i]++
				mask[j>>5] |= 1 << (j & 31)
			}
		}
	}

	// The lists themselves, each cut empty at its final capacity so that
	// the appends below fill it in place.
	total := int(k.qOff[nq])
	lists = reuse.Zeroed(lists, 3*total)
	heads = reuse.Zeroed(heads, 2*n)
	k.lists, k.heads = lists, heads
	k.ansCand, lists = lists[:0:total], lists[total:]
	k.cand2q, k.cand2pos = heads[:n:n], heads[n:]
	for i, c := range answers {
		k.cand2q[i], lists = lists[:0:c], lists[c:]
		k.cand2pos[i], lists = lists[:0:c], lists[c:]
	}
	// The counting pass's masks name each query's answerers in order's
	// order, so no pair is asked about twice.
	for q := range nq {
		for wi, word := range masks[q*mw : (q+1)*mw] {
			for bw := uint32(word); bw != 0; bw &= bw - 1 {
				i := order[wi<<5+bits.TrailingZeros32(bw)]
				k.cand2pos[i] = append(k.cand2pos[i], int32(len(k.ansCand)))
				k.ansCand = append(k.ansCand, i)
				k.cand2q[i] = append(k.cand2q[i], int32(q))
			}
		}
	}
	return nil
}

// Bytes reports the size of the kernel's arrays.
func (k *ComparisonKernel) Bytes() int {
	return reuse.Bytes(k.ids) + reuse.Bytes(k.size) + reuse.Bytes(k.int64s) + reuse.Bytes(k.pre) + reuse.Bytes(k.lists) + reuse.Bytes(k.heads)
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
