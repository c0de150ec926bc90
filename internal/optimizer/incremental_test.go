package optimizer

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// incrementalFixture builds a random synthetic instance: lattice,
// workload, candidate pool (HRU picks plus random extra nodes so the
// pool is not limited to "obviously good" views, every point once), and
// an evaluator.
func incrementalFixture(t testing.TB, rng *rand.Rand, policy views.MaintenancePolicy) (*Evaluator, []views.Candidate) {
	t.Helper()
	dims := 2 + rng.Intn(2)   // 2..3
	levels := 3 + rng.Intn(2) // 3..4
	sch, err := schema.Synthetic(dims, levels)
	if err != nil {
		t.Fatal(err)
	}
	factRows := int64(1_000_000 + rng.Intn(50_000_000))
	l, err := lattice.New(sch, factRows)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Random(l, 3+rng.Intn(12), 6, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 1+rng.Intn(5))
	if err != nil {
		t.Fatal(err)
	}
	est := views.NewEstimator(l, cl)
	est.MaintenanceRuns = rng.Intn(7) // includes 0: the degenerate no-refresh regime
	est.UpdateRatio = rng.Float64()
	est.Policy = policy
	egress, err := w.ResultBytes(l)
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.Node(l.Base())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(est, w, costmodel.Plan{
		Cluster:       cl,
		Months:        1 + 5*rng.Float64(),
		DatasetSize:   base.Size,
		MonthlyEgress: egress,
	})
	if err != nil {
		t.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Pad with random non-base nodes not in the pool yet — including some
	// the HRU would never pick — to 12 candidates, or every non-base node
	// of a smaller lattice.
	nodes := l.Nodes()
	for _, k := range rng.Perm(len(nodes) - 1) {
		n := nodes[1+k]
		if len(cands) < 12 && !slices.ContainsFunc(cands, func(c views.Candidate) bool { return c.Point.Equal(n.Point) }) {
			cands = append(cands, views.Candidate{Point: n.Point, Rows: n.Rows, Size: n.Size})
		}
	}
	return ev, cands
}

// selectedPoints expands a bitmap into points in candidate order — the
// exact slice shape the search solver hands Evaluate.
func selectedPoints(cands []views.Candidate, sel []bool) []lattice.Point {
	var pts []lattice.Point
	for i, on := range sel {
		if on {
			pts = append(pts, cands[i].Point)
		}
	}
	return pts
}

// TestIncrementalMatchesEvaluateRandomWalk is the admissibility property
// of the delta engine: on random instances, after every Add/Drop of a
// random walk the incremental Score must equal Evaluator.Evaluate of the
// resulting subset EXACTLY — same time.Duration, same Bill (every money
// field), under both maintenance policies. Every tenth step the whole
// neighborhood is probed read-only as well. Any deviation means the
// incremental engine optimizes a different function than the ground
// truth it claims to accelerate.
func TestIncrementalMatchesEvaluateRandomWalk(t *testing.T) {
	for _, policy := range []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance} {
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*int(policy) + trial)))
			ev, cands := incrementalFixture(t, rng, policy)
			sess, err := NewSession(ev, cands)
			if err != nil {
				t.Fatal(err)
			}
			inc := sess.Engine()
			sel := make([]bool, len(cands))
			check := func(step int) {
				gotT, gotBill, err := inc.Score()
				if err != nil {
					t.Fatal(err)
				}
				wantT, wantBill, err := ev.Evaluate(selectedPoints(cands, sel))
				if err != nil {
					t.Fatal(err)
				}
				if gotT != wantT || gotBill != wantBill {
					t.Fatalf("policy %v trial %d step %d sel %v:\nincremental (%v, %+v)\nexact       (%v, %+v)",
						policy, trial, step, sel, gotT, gotBill, wantT, wantBill)
				}
			}
			check(-1)
			for step := 0; step < 60; step++ {
				if step%10 == 0 {
					checkNeighborhood(t, ev, cands, inc, sel)
				}
				i := rng.Intn(len(cands))
				if sel[i] {
					inc.Drop(i)
					sel[i] = false
				} else {
					inc.Add(i)
					sel[i] = true
				}
				check(step)
			}
		}
	}
}

// checkNeighborhood probes every neighbor a search prices — each flip,
// and each swap of a selected candidate for an unselected one — and
// holds it to the moved engine and to Evaluate, and every other pair to
// a rejection (checkProbe).
func checkNeighborhood(t *testing.T, ev *Evaluator, cands []views.Candidate, inc *IncrementalEvaluator, sel []bool) {
	t.Helper()
	for i := range sel {
		checkProbe(t, ev, cands, inc, sel, i, -1)
		for j := range sel {
			checkProbe(t, ev, cands, inc, sel, i, j)
		}
	}
}

// TestProbeRejectsMalformedSwap: a swap must take out a selected
// candidate and bring in an unselected one.
func TestProbeRejectsMalformedSwap(t *testing.T) {
	ev, cands := incrementalFixture(t, rand.New(rand.NewSource(3)), views.ImmediateMaintenance)
	sess, err := NewSession(ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	inc := sess.Engine()
	inc.Add(0)
	inc.Add(1)
	for _, m := range [][2]int{{2, 3}, {0, 1}, {2, 0}} {
		if _, err := inc.Probe(m[0], m[1]); err == nil {
			t.Errorf("Probe(%d, %d) with only 0 and 1 selected: no error", m[0], m[1])
		}
	}
}

// TestScoreMatchesPlanBillAcrossTariffs pins the bill Score assembles —
// three compute terms and storage priced per call, egress priced once at
// binding — to Plan.Bill through Evaluate on every catalog tariff, for whole,
// fractional and zero billing periods.
func TestScoreMatchesPlanBillAcrossTariffs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, name := range pricing.ProviderNames() {
		prov, err := pricing.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, months := range []float64{0, 0.5, 1, 7.25} {
			seedEv, cands := incrementalFixture(t, rng, views.MaintenancePolicy(rng.Intn(2)))
			cl, err := cluster.New(prov, "small", 1+rng.Intn(6))
			if err != nil {
				t.Fatal(err)
			}
			est := *seedEv.Est
			est.Cl = cl
			plan := costmodel.Plan{
				Cluster:       cl,
				Months:        months,
				DatasetSize:   seedEv.Base.DatasetSize,
				MonthlyEgress: seedEv.Base.MonthlyEgress,
			}
			ev, err := NewEvaluator(&est, seedEv.W, plan)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(ev, cands)
			if err != nil {
				t.Fatal(err)
			}
			inc := sess.Engine()
			sel := make([]bool, len(cands))
			for step := 0; step < 30; step++ {
				i := rng.Intn(len(cands))
				if sel[i] {
					inc.Drop(i)
				} else {
					inc.Add(i)
				}
				sel[i] = !sel[i]
				gotT, gotBill, err := inc.Score()
				if err != nil {
					t.Fatal(err)
				}
				wantT, wantBill, err := ev.Evaluate(selectedPoints(cands, sel))
				if err != nil {
					t.Fatal(err)
				}
				if gotT != wantT || gotBill != wantBill {
					t.Fatalf("%s months %g step %d:\nincremental (%v, %+v)\nexact       (%v, %+v)",
						name, months, step, gotT, gotBill, wantT, wantBill)
				}
			}
		}
	}
}

// TestIncrementalReset: re-pinning to an arbitrary subset must land in
// exactly the state a fresh walk to that subset reaches.
func TestIncrementalReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ev, cands := incrementalFixture(t, rng, views.DeferredMaintenance)
	sess, err := NewSession(ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	inc := sess.Engine()
	for trial := 0; trial < 20; trial++ {
		sel := make([]bool, len(cands))
		for i := range sel {
			sel[i] = rng.Intn(2) == 0
		}
		if err := inc.Reset(sel); err != nil {
			t.Fatal(err)
		}
		gotT, gotBill, err := inc.Score()
		if err != nil {
			t.Fatal(err)
		}
		wantT, wantBill, err := ev.Evaluate(selectedPoints(cands, sel))
		if err != nil {
			t.Fatal(err)
		}
		if gotT != wantT || gotBill != wantBill {
			t.Fatalf("trial %d sel %v: reset state (%v, %+v) != exact (%v, %+v)",
				trial, sel, gotT, gotBill, wantT, wantBill)
		}
	}
	if err := inc.Reset(make([]bool, 1)); err == nil {
		t.Error("wrong-arity reset accepted")
	}
}

// TestIncrementalWords: the packed bitmap tracks the selection and
// redundant moves are no-ops.
func TestIncrementalWords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ev, cands := incrementalFixture(t, rng, views.ImmediateMaintenance)
	sess, err := NewSession(ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	inc := sess.Engine()
	inc.Add(3)
	inc.Add(3) // no-op
	inc.Add(5)
	inc.Drop(5)
	inc.Drop(5) // no-op
	if !inc.Selected(3) || inc.Selected(5) {
		t.Fatalf("selection flags wrong: %v %v", inc.Selected(3), inc.Selected(5))
	}
	want := uint64(1) << 3
	if inc.Words()[0] != want {
		t.Fatalf("words[0] = %b, want %b", inc.Words()[0], want)
	}
	t1, b1, err := inc.Score()
	if err != nil {
		t.Fatal(err)
	}
	t2, b2, err := ev.Evaluate(selectedPoints(cands, []bool{false, false, false, true}))
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 || b1 != b2 {
		t.Fatalf("(%v,%+v) != (%v,%+v)", t1, b1, t2, b2)
	}
	if inc.Len() != len(cands) {
		t.Fatalf("Len = %d, want %d", inc.Len(), len(cands))
	}
}

// BenchmarkIncrementalProbe prices neighbors on the repo benchmark's
// search-large shape (a 4×4 synthetic schema of 256 cuboids, 40 queries,
// a 48-candidate pool, half of it selected) two ways: a read-only flip
// probe, and the Add, Score, Drop round trip a search used to step
// through for the same price. One op is every candidate flipped each
// way, plus as many Scores of the pinned state, plus one replay of a
// seeded random walk (walkSteps). ns/probe and ns/roundtrip are per
// flip, and ns/bill — the exact bill alone, with no routing — is per
// Score. ns/walk is per probe of the walk, the moves included: the flips
// in a fixed cycle are a pattern a branch predictor learns, and the
// walk's states are as random as a search's.
func BenchmarkIncrementalProbe(b *testing.B) {
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	l, err := lattice.New(sch, 1_000_000_000)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.Random(l, 40, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(pricing.AWS2012(), "small", 5)
	if err != nil {
		b.Fatal(err)
	}
	est := views.NewEstimator(l, cl)
	est.MaintenanceRuns = 6
	est.UpdateRatio = 0.5
	ev, err := NewEvaluator(est, w, costmodel.Plan{Cluster: cl, Months: 1, DatasetSize: l.NodeByID(0).Size})
	if err != nil {
		b.Fatal(err)
	}
	cands, err := views.GenerateCandidates(l, w, 48)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(ev, cands)
	if err != nil {
		b.Fatal(err)
	}
	inc := sess.Engine()
	n := len(cands)
	start := make([]bool, n)
	for i := 0; i < n/2; i++ {
		inc.Add(i)
		start[i] = true
	}
	walk := walkSteps(rand.New(rand.NewSource(1)), start, 256)
	var probe, trip, bill, walked time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		begin := time.Now()
		for i := 0; i < n; i++ {
			if _, err := inc.Probe(i, -1); err != nil {
				b.Fatal(err)
			}
		}
		mid := time.Now()
		for i := 0; i < n; i++ {
			toggle(inc, i)
			if _, _, err := inc.Score(); err != nil {
				b.Fatal(err)
			}
			toggle(inc, i)
		}
		end := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := inc.Score(); err != nil {
				b.Fatal(err)
			}
		}
		last := time.Now()
		for _, st := range walk {
			if _, err := inc.Probe(st.i, st.j); err != nil {
				b.Fatal(err)
			}
			if st.move {
				toggle(inc, st.i)
				if st.j >= 0 {
					toggle(inc, st.j)
				}
			}
		}
		walkEnd := time.Now()
		if err := inc.Reset(start); err != nil {
			b.Fatal(err)
		}
		probe += mid.Sub(begin)
		trip += end.Sub(mid)
		bill += last.Sub(end)
		walked += walkEnd.Sub(last)
	}
	flips := float64(b.N * n)
	b.ReportMetric(float64(probe)/flips, "ns/probe")
	b.ReportMetric(float64(trip)/flips, "ns/roundtrip")
	b.ReportMetric(float64(bill)/flips, "ns/bill")
	b.ReportMetric(float64(walked)/float64(b.N*len(walk)), "ns/walk")
}

// walkStep is one probe of a random walk: a flip of i (j < 0) or a swap
// of selected i for unselected j, moved onto when move is set.
type walkStep struct {
	i, j int
	move bool
}

// walkSteps draws a walk of count probes from the subset sel, one in
// four a swap and the rest flips, moving onto every fourth neighbor it
// probes. sel is left as it was.
func walkSteps(rng *rand.Rand, sel []bool, count int) []walkStep {
	sel = slices.Clone(sel)
	steps := make([]walkStep, count)
	for k := range steps {
		st := walkStep{i: rng.Intn(len(sel)), j: -1, move: k%4 == 3}
		if rng.Intn(4) == 0 {
			if out, in, ok := randomSwap(rng, sel); ok {
				st.i, st.j = out, in
			}
		}
		if st.move {
			sel[st.i] = !sel[st.i]
			if st.j >= 0 {
				sel[st.j] = !sel[st.j]
			}
		}
		steps[k] = st
	}
	return steps
}
