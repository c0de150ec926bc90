package views

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/workload"
)

// naiveBenefit is the pre-index formulation: the frequency-weighted
// reduction in scanned rows if v joins the chosen set, computed by
// re-routing every query against the full set twice.
func naiveBenefit(l *lattice.Lattice, w workload.Workload, chosen []lattice.Point, v lattice.Node) int64 {
	var total int64
	withV := append(append([]lattice.Point(nil), chosen...), v.Point)
	for _, q := range w.Queries {
		_, before := l.CheapestAnswering(chosen, q.Point)
		_, after := l.CheapestAnswering(withV, q.Point)
		if after.Rows < before.Rows {
			total += int64(q.Frequency) * (before.Rows - after.Rows)
		}
	}
	return total
}

// naiveGenerate is the original HRU loop, kept verbatim as the oracle
// the incremental-assignment rewrite must match selection for selection.
func naiveGenerate(l *lattice.Lattice, w workload.Workload, k int) []Candidate {
	base := l.Base()
	var pool []lattice.Node
	for _, n := range l.Nodes() {
		if !n.Point.Equal(base) {
			pool = append(pool, n)
		}
	}
	var selected []Candidate
	chosen := make([]lattice.Point, 0, k)
	for len(selected) < k {
		bestIdx := -1
		var bestBenefit int64
		var bestPerByte float64
		for i, n := range pool {
			if n.Point == nil {
				continue
			}
			b := naiveBenefit(l, w, chosen, n)
			if b <= 0 {
				continue
			}
			perByte := float64(b) / float64(n.Size)
			if bestIdx == -1 || perByte > bestPerByte {
				bestIdx, bestBenefit, bestPerByte = i, b, perByte
			}
		}
		if bestIdx == -1 {
			break
		}
		n := pool[bestIdx]
		selected = append(selected, Candidate{Point: n.Point, Rows: n.Rows, Size: n.Size, Benefit: bestBenefit})
		chosen = append(chosen, n.Point)
		pool[bestIdx].Point = nil
	}
	return selected
}

// TestGenerateCandidatesMatchesNaiveHRU: the incremental-assignment HRU
// must reproduce the naive algorithm's selections exactly — same views,
// same order, same recorded benefits — on the paper's lattice and on
// synthetic ones with random workloads.
func TestGenerateCandidatesMatchesNaiveHRU(t *testing.T) {
	type instance struct {
		name     string
		dims     int
		levels   int
		factRows int64
		queries  int
		seed     int64
	}
	cases := []instance{
		{"synthetic-3x3", 3, 3, 5_000_000, 8, 1},
		{"synthetic-4x4", 4, 4, 1_000_000_000, 20, 1},
		{"synthetic-2x4", 2, 4, 40_000_000, 12, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sch, err := schema.Synthetic(c.dims, c.levels)
			if err != nil {
				t.Fatal(err)
			}
			l, err := lattice.New(sch, c.factRows)
			if err != nil {
				t.Fatal(err)
			}
			w, err := workload.Random(l, c.queries, 8, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, 32} {
				got, err := GenerateCandidates(l, w, k)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveGenerate(l, w, k)
				if len(got) != len(want) {
					t.Fatalf("k=%d: %d candidates, naive HRU picked %d", k, len(got), len(want))
				}
				for i := range got {
					if !got[i].Point.Equal(want[i].Point) || got[i].Benefit != want[i].Benefit {
						t.Fatalf("k=%d candidate %d: got %v benefit %d, naive %v benefit %d",
							k, i, got[i].Point, got[i].Benefit, want[i].Point, want[i].Benefit)
					}
				}
			}
		})
	}

	// Paper's sales lattice with the full workload.
	l, err := lattice.New(schema.Sales(), 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Sales(l, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateCandidates(l, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveGenerate(l, w, 8)
	if len(got) != len(want) {
		t.Fatalf("sales: %d candidates vs naive %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Point.Equal(want[i].Point) || got[i].Benefit != want[i].Benefit {
			t.Fatalf("sales candidate %d: got %v/%d, naive %v/%d",
				i, got[i].Point, got[i].Benefit, want[i].Point, want[i].Benefit)
		}
	}
}

// referenceCandidates is the round-by-round generator GenerateCandidates
// replaced, kept verbatim as its definition: every round recomputes
// every remaining node's benefit with one answerability probe per
// (node, query) — O(k·N·Q).
func referenceCandidates(l *lattice.Lattice, w workload.Workload, k int) ([]Candidate, error) {
	if err := w.Validate(l); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("views: non-positive candidate budget %d", k)
	}
	// Per-query routing state: id and the rows of the current cheapest
	// chosen source (initially the base table).
	baseRows := l.NodeByID(0).Rows
	nq := len(w.Queries)
	qid := make([]int, nq)
	qfreq := make([]int64, nq)
	curRows := make([]int64, nq)
	for i, q := range w.Queries {
		id, err := l.ID(q.Point)
		if err != nil {
			return nil, err
		}
		qid[i] = id
		qfreq[i] = int64(q.Frequency)
		curRows[i] = baseRows
	}
	base := l.Base()
	var pool []lattice.Node
	var poolIDs []int
	for id, n := range l.Nodes() {
		if !n.Point.Equal(base) {
			pool = append(pool, n)
			poolIDs = append(poolIDs, id)
		}
	}
	var selected []Candidate
	for len(selected) < k {
		bestIdx := -1
		var bestBenefit int64
		var bestPerByte float64
		for i, n := range pool {
			if n.Point == nil {
				continue // already selected
			}
			var b int64
			for q := 0; q < nq; q++ {
				if n.Rows < curRows[q] && l.CanAnswerID(poolIDs[i], qid[q]) {
					b += qfreq[q] * (curRows[q] - n.Rows)
				}
			}
			if b <= 0 {
				continue
			}
			perByte := float64(b) / float64(n.Size)
			if bestIdx == -1 || perByte > bestPerByte {
				bestIdx, bestBenefit, bestPerByte = i, b, perByte
			}
		}
		if bestIdx == -1 {
			break // nothing beneficial left
		}
		n := pool[bestIdx]
		selected = append(selected, Candidate{
			Point:   n.Point,
			Rows:    n.Rows,
			Size:    n.Size,
			Benefit: bestBenefit,
		})
		for q := 0; q < nq; q++ {
			if n.Rows < curRows[q] && l.CanAnswerID(poolIDs[bestIdx], qid[q]) {
				curRows[q] = n.Rows
			}
		}
		pool[bestIdx].Point = nil
	}
	return selected, nil
}

// hruCase draws one candidate-generation problem from a seed: a
// synthetic schema between 2×2 and 4×4 (every eighth case the sales
// schema), fact rows from 10⁴ up to the 2·10⁹ where cuboid key counts
// saturate mulCap, and a workload whose frequencies are all 1, small, or
// large enough that freq × rows wraps int64. Every third workload also
// carries a query at the base, one at the apex and a repeated point.
func hruCase(tb testing.TB, seed int64) (*lattice.Lattice, workload.Workload) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	sch := schema.Sales()
	if seed%8 != 0 {
		var err error
		if sch, err = schema.Synthetic(2+rng.Intn(3), 2+rng.Intn(3)); err != nil {
			tb.Fatal(err)
		}
	}
	rows := []int64{10_000, 3_000_000, 200_000_000, 2_000_000_000}[rng.Intn(4)]
	l, err := lattice.New(sch, rows)
	if err != nil {
		tb.Fatal(err)
	}
	maxFreq := []int{1, 8, 1 << 40}[rng.Intn(3)]
	w, err := workload.Random(l, 1+rng.Intn(40), maxFreq, rng.Int63())
	if err != nil {
		tb.Fatal(err)
	}
	if seed%3 == 0 {
		w.Queries = append(w.Queries,
			workload.Query{Name: "base", Point: l.Base(), Frequency: 1 + rng.Intn(maxFreq)},
			workload.Query{Name: "apex", Point: l.Apex(), Frequency: 1 + rng.Intn(maxFreq)},
			workload.Query{Name: "again", Point: w.Queries[0].Point, Frequency: 1 + rng.Intn(maxFreq)},
		)
	}
	return l, w
}

// checkAgainstReference holds GenerateCandidates to referenceCandidates
// element for element, recorded benefits included, and its work count to
// the bound the maintained loop promises: each query's answerer list is
// walked once to initialise and once per pick that lowered the query.
func checkAgainstReference(tb testing.TB, l *lattice.Lattice, w workload.Workload, k int) {
	tb.Helper()
	want, wantErr := referenceCandidates(l, w, k)
	got, visited, err := generateCandidates(l, w, k)
	if (err == nil) != (wantErr == nil) {
		tb.Fatalf("k=%d: error %v, reference %v", k, err, wantErr)
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		tb.Fatalf("k=%d: candidates differ from the reference\n got %+v\nwant %+v", k, got, want)
	}
	if err != nil {
		return
	}
	bound := 0
	for _, q := range w.Queries {
		answerers := len(l.Ancestors(q.Point)) // strict ancestors incl. the base ≡ ancestors + self − base
		lowered := 0
		cur := l.NodeByID(0).Rows
		for _, c := range got {
			if c.Rows < cur && l.CanAnswer(c.Point, q.Point) {
				cur = c.Rows
				lowered++
			}
		}
		bound += answerers * (1 + lowered)
	}
	if visited > bound {
		tb.Fatalf("k=%d: %d answerer entries visited, bound %d", k, visited, bound)
	}
}

// TestGenerateCandidatesMatchesReference: 320 seeded problems × four
// candidate budgets against the round-by-round definition.
func TestGenerateCandidatesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		l, w := hruCase(t, seed)
		for _, k := range []int{1, 8, 48, l.NumNodes()} {
			checkAgainstReference(t, l, w, k)
		}
	}
}

func FuzzGenerateCandidates(f *testing.F) {
	f.Add(int64(0), uint16(8))
	f.Add(int64(3), uint16(1))
	f.Add(int64(-7), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, k uint16) {
		l, w := hruCase(t, seed)
		checkAgainstReference(t, l, w, int(k))
	})
}

// benchShape is the repo benchmark's search-large problem: 256 cuboids,
// 40 queries, a candidate budget of 48.
func benchShape(tb testing.TB) (*lattice.Lattice, workload.Workload) {
	tb.Helper()
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := lattice.New(sch, 1_000_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.Random(l, 40, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return l, w
}

// TestGenerateCandidatesWorkBound gates the generator's work in counts:
// on the benchmark's shape the reference makes one answerability probe
// per (round, node, query); the maintained loop must visit at most a
// tenth as many answerer entries.
func TestGenerateCandidatesWorkBound(t *testing.T) {
	l, w := benchShape(t)
	checkAgainstReference(t, l, w, 48)
	cands, visited, err := generateCandidates(l, w, 48)
	if err != nil {
		t.Fatal(err)
	}
	// The reference also runs the round that finds nothing left.
	rounds := len(cands)
	if rounds < 48 {
		rounds++
	}
	probes := rounds * (l.NumNodes() - 1) * len(w.Queries)
	t.Logf("%d candidates: %d answerer entries visited, reference %d probes", len(cands), visited, probes)
	if visited*10 > probes {
		t.Fatalf("%d answerer entries visited, want at most a tenth of the reference's %d probes", visited, probes)
	}
}

// BenchmarkGenerateCandidatesLarge measures HRU candidate generation on
// the benchmark's 256-cuboid shape; probes/op is the number of
// answerer-list entries visited.
func BenchmarkGenerateCandidatesLarge(b *testing.B) {
	l, w := benchShape(b)
	var visited int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, v, err := generateCandidates(l, w, 48)
		if err != nil {
			b.Fatal(err)
		}
		visited = v
	}
	b.ReportMetric(float64(visited), "probes/op")
}
