package optimizer

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// referenceKernel is NewComparisonKernel as it was before the structure
// was built in slabs: one append chain per candidate, a map from lattice
// id to candidate for the repeated-point check, and a stable sort of
// every query's answering list by (rows, candidate index). Kept as the
// definition the slab build is held to, field by field and error for
// error.
func referenceKernel(l *lattice.Lattice, w workload.Workload, cands []views.Candidate) (*ComparisonKernel, error) {
	n, nq := len(cands), len(w.Queries)
	k := &ComparisonKernel{
		Lat: l, Cands: cands, n: n, nq: nq,
		ids:    make([]int, n),
		rows:   make([]int64, n),
		size:   make([]units.DataSize, n),
		qFreq:  make([]int64, nq),
		qOff:   make([]int32, nq+1),
		cand2q: make([][]int32, n),
	}
	first := make(map[int]int, n)
	for i, c := range cands {
		id, err := l.ID(c.Point)
		if err != nil {
			return nil, fmt.Errorf("optimizer: candidate %d: %w", i, err)
		}
		if j, ok := first[id]; ok {
			return nil, fmt.Errorf("optimizer: candidate %d repeats candidate %d's point %v", i, j, c.Point)
		}
		first[id] = i
		k.ids[i] = id
		node := l.NodeByID(id)
		k.rows[i] = node.Rows
		k.size[i] = node.Size
	}
	baseNode := l.NodeByID(0)
	k.baseRows = baseNode.Rows
	k.baseSize = baseNode.Size

	type ansRef struct {
		cand int32
		rows int64
	}
	var scratch []ansRef
	for q, query := range w.Queries {
		qid, err := l.ID(query.Point)
		if err != nil {
			return nil, fmt.Errorf("optimizer: query %d: %w", q, err)
		}
		k.qFreq[q] = int64(query.Frequency)
		scratch = scratch[:0]
		for i := 0; i < n; i++ {
			if k.rows[i] >= baseNode.Rows || !l.CanAnswerID(k.ids[i], qid) {
				continue
			}
			scratch = append(scratch, ansRef{cand: int32(i), rows: k.rows[i]})
			k.cand2q[i] = append(k.cand2q[i], int32(q))
		}
		sort.SliceStable(scratch, func(a, b int) bool {
			if scratch[a].rows != scratch[b].rows {
				return scratch[a].rows < scratch[b].rows
			}
			return scratch[a].cand < scratch[b].cand
		})
		for _, e := range scratch {
			k.ansCand = append(k.ansCand, e.cand)
		}
		k.qOff[q+1] = int32(len(k.ansCand))
	}
	return k, nil
}

// checkKernelMatchesReference builds both kernels and compares every
// derived field, or the error both builds reject the input with, which it
// returns. A list nobody is on is nil in the reference and empty in the
// slab build; slices.Equal reads the two alike, as every reader of the
// kernel does.
func checkKernelMatchesReference(t *testing.T, name string, l *lattice.Lattice, w workload.Workload, cands []views.Candidate) error {
	t.Helper()
	want, wantErr := referenceKernel(l, w, cands)
	got, err := NewComparisonKernel(l, w, cands)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || wantErr.Error() != err.Error() {
			t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
		}
		return err
	}
	if got.n != want.n || got.nq != want.nq || got.baseRows != want.baseRows || got.baseSize != want.baseSize {
		t.Fatalf("%s: scalars (%d,%d,%d,%v), reference (%d,%d,%d,%v)", name,
			got.n, got.nq, got.baseRows, got.baseSize, want.n, want.nq, want.baseRows, want.baseSize)
	}
	flat := func(field string, eq bool) {
		if !eq {
			t.Fatalf("%s: %s differs from the reference", name, field)
		}
	}
	flat("ids", slices.Equal(got.ids, want.ids))
	flat("rows", slices.Equal(got.rows, want.rows))
	flat("size", slices.Equal(got.size, want.size))
	flat("qFreq", slices.Equal(got.qFreq, want.qFreq))
	flat("qOff", slices.Equal(got.qOff, want.qOff))
	flat("ansCand", slices.Equal(got.ansCand, want.ansCand))
	flat("cand2q", slices.EqualFunc(got.cand2q, want.cand2q, slices.Equal[[]int32]))
	// cand2pos has no reference twin: it is held to what it indexes,
	// candidate i's own entry in each of its queries' answering lists.
	for i, qs := range got.cand2q {
		if len(got.cand2pos[i]) != len(qs) {
			t.Fatalf("%s: candidate %d has %d positions for %d queries", name, i, len(got.cand2pos[i]), len(qs))
		}
		for x, q := range qs {
			if p := got.cand2pos[i][x]; p < got.qOff[q] || p >= got.qOff[q+1] || got.ansCand[p] != int32(i) {
				t.Fatalf("%s: candidate %d's position %d for query %d is not its answering entry", name, i, p, q)
			}
		}
	}
	return nil
}

// fuzzCorpusCase reads one committed FuzzGenerateCandidates input and
// draws its problem the way that target does (views.hruCase): a
// synthetic schema between 2×2 and 4×4 or, every eighth seed, the sales
// schema; fact rows up to where key counts saturate; frequencies up to
// where freq × rows wraps; every third workload with a base query, an
// apex query and a repeated point.
func fuzzCorpusCase(t *testing.T, path string) (*lattice.Lattice, workload.Workload, int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seed int64
	var k uint16
	if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\nint64(%d)\nuint16(%d)", &seed, &k); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rng := rand.New(rand.NewSource(seed))
	sch := schema.Sales()
	if seed%8 != 0 {
		if sch, err = schema.Synthetic(2+rng.Intn(3), 2+rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	l, err := lattice.New(sch, []int64{10_000, 3_000_000, 200_000_000, 2_000_000_000}[rng.Intn(4)])
	if err != nil {
		t.Fatal(err)
	}
	maxFreq := []int{1, 8, 1 << 40}[rng.Intn(3)]
	w, err := workload.Random(l, 1+rng.Intn(40), maxFreq, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	if seed%3 == 0 {
		w.Queries = append(w.Queries,
			workload.Query{Name: "base", Point: l.Base(), Frequency: 1 + rng.Intn(maxFreq)},
			workload.Query{Name: "apex", Point: l.NodeByID(l.NumNodes() - 1).Point, Frequency: 1 + rng.Intn(maxFreq)},
			workload.Query{Name: "again", Point: w.Queries[0].Point, Frequency: 1 + rng.Intn(maxFreq)},
		)
	}
	return l, w, int(k)
}

// TestSlabKernelMatchesReference holds the slab-built kernel to the
// construction it replaced on the inputs that exercise its ordering
// rules: generated pools over the candidate generator's fuzz corpus, the
// paper's ten queries, and pools full of equal-row candidates — the
// (rows, candidate index) order of an answering list is what the
// Evaluator's cheapest-answering rule reads — and on the inputs both
// must refuse alike: a repeated point, a point outside the lattice.
func TestSlabKernelMatchesReference(t *testing.T) {
	corpus, err := filepath.Glob(filepath.Join("..", "views", "testdata", "fuzz", "FuzzGenerateCandidates", "*"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no FuzzGenerateCandidates corpus (%v)", err)
	}
	for _, path := range corpus {
		l, w, k := fuzzCorpusCase(t, path)
		cands, err := views.GenerateCandidates(l, w, k)
		if err != nil {
			continue // a budget the generator rejects has no pool to pin
		}
		checkKernelMatchesReference(t, filepath.Base(path), l, w, cands)
	}

	sales, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := workload.Sales(sales, 10)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(sales, paper, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkKernelMatchesReference(t, "paper", sales, paper, cands)
	checkKernelMatchesReference(t, "paper, no candidates", sales, paper, nil)
	checkKernelMatchesReference(t, "paper, no queries", sales, workload.Workload{}, cands)

	// Every point twice, the second copies in reverse: the first repeat
	// is the last point, named again right after itself.
	dup := slices.Clone(cands)
	for i := len(cands) - 1; i >= 0; i-- {
		dup = append(dup, cands[i])
	}
	last := len(cands) - 1
	want := fmt.Sprintf("optimizer: candidate %d repeats candidate %d's point %v", last+1, last, cands[last].Point)
	if err := checkKernelMatchesReference(t, "duplicate points", sales, paper, dup); err == nil || err.Error() != want {
		t.Fatalf("duplicate points: error %v, want %q", err, want)
	}

	// Every cuboid of a 4×4 synthetic lattice, base included (never
	// assignable), in three orders. Its cuboids repeat key counts, so
	// equal-row candidates are plentiful — asserted, not assumed.
	sch, err := schema.Synthetic(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lattice.New(sch, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Random(l, 24, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	var all []views.Candidate
	ties := 0
	for _, n := range l.Nodes() {
		for _, c := range all {
			if c.Rows == n.Rows {
				ties++
			}
		}
		all = append(all, views.Candidate{Point: n.Point, Rows: n.Rows, Size: n.Size})
	}
	if ties == 0 {
		t.Fatal("the tie fixture has no two cuboids with equal rows")
	}
	checkKernelMatchesReference(t, "ties, lattice order", l, w, all)
	slices.Reverse(all)
	checkKernelMatchesReference(t, "ties, reversed", l, w, all)
	rand.New(rand.NewSource(9)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	checkKernelMatchesReference(t, "ties, shuffled", l, w, all)

	// A point outside the lattice: both builds refuse it in the same words.
	bad := append(slices.Clone(cands), views.Candidate{Point: lattice.Point{9, 9}})
	checkKernelMatchesReference(t, "bad candidate", sales, paper, bad)
	checkKernelMatchesReference(t, "bad query", sales,
		workload.Workload{Queries: []workload.Query{{Name: "q", Point: lattice.Point{0}, Frequency: 1}}}, cands)
}

// TestRepeatedPointRejected: every way into the kernel refuses a pool
// that names one lattice point twice, naming the repeat and the point,
// while the Evaluator, the reference, still prices such a selection.
func TestRepeatedPointRejected(t *testing.T) {
	ev, cands := fixture(t, 10)
	pool := append(slices.Clone(cands), cands[2])
	want := fmt.Sprintf("optimizer: candidate %d repeats candidate 2's point %v", len(cands), cands[2].Point)
	_, kerr := NewComparisonKernel(ev.Est.Lat, ev.W, pool)
	_, serr := NewSession(ev, pool)
	for name, err := range map[string]error{"NewComparisonKernel": kerr, "NewSession": serr} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
	if _, _, err := ev.Evaluate([]lattice.Point{cands[2].Point, cands[2].Point}); err != nil {
		t.Errorf("Evaluate of a repeated point: %v", err)
	}
}

// TestComparisonKernelAllocBudget pins the slab build in counts: the
// kernel struct and six slabs (ints, int64s, sizes, the counting pass's
// int32s, the lists' int32s, the list headers), whatever the pool or
// workload size. The append-chain build cost 58 on this problem.
func TestComparisonKernelAllocBudget(t *testing.T) {
	l, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := NewComparisonKernel(l, w, cands); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Errorf("NewComparisonKernel allocates %.0f times, budget 7", allocs)
	}
}
