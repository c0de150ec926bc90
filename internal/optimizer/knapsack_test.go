package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vmcloud/internal/money"
	"vmcloud/internal/obs"
)

// MinCostCover is minCostCover on fresh scratch.
func MinCostCover(costs, gains []int64, need int64) ([]int, bool, error) {
	return new(frontierDP).minCostCover(costs, gains, need)
}

// bruteKnapsack maximizes value under the weight cap by enumeration.
func bruteKnapsack(values, weights []int64, cap int64) int64 {
	n := len(values)
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var v, w int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func sumAt(vals []int64, idx []int) int64 {
	var s int64
	for _, i := range idx {
		s += vals[i]
	}
	return s
}

func TestKnapsack01Basic(t *testing.T) {
	values := []int64{60, 100, 120}
	weights := []int64{10, 20, 30}
	idx, err := Knapsack01(values, weights, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAt(values, idx); got != 220 {
		t.Errorf("value = %d, want 220 (items 1,2)", got)
	}
	if got := sumAt(weights, idx); got > 50 {
		t.Errorf("weight = %d exceeds capacity", got)
	}
}

func TestKnapsack01Edges(t *testing.T) {
	if idx, err := Knapsack01(nil, nil, 10); err != nil || len(idx) != 0 {
		t.Errorf("empty = %v, %v", idx, err)
	}
	if idx, err := Knapsack01([]int64{5}, []int64{3}, -1); err != nil || len(idx) != 0 {
		t.Errorf("negative cap = %v, %v", idx, err)
	}
	if idx, err := Knapsack01([]int64{5}, []int64{0}, 0); err != nil || len(idx) != 1 {
		t.Errorf("zero-weight item = %v, %v", idx, err)
	}
	if _, err := Knapsack01([]int64{1}, []int64{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Knapsack01([]int64{-1}, []int64{1}, 5); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := Knapsack01([]int64{1}, []int64{-1}, 5); err == nil {
		t.Error("negative weight accepted")
	}
}

// Regression for the dead-sentinel bug: the zero-initialized DP is the
// "weight ≤ c" formulation, where every state is reachable. These
// instances each have a unique optimum, so the exact index set is pinned
// (not just the optimal value).
func TestKnapsack01PinnedSelections(t *testing.T) {
	cases := []struct {
		name     string
		values   []int64
		weights  []int64
		capacity int64
		want     []int
	}{
		{"classic", []int64{60, 100, 120}, []int64{10, 20, 30}, 50, []int{1, 2}},
		{"skip greedy trap", []int64{10, 40, 30, 50}, []int64{5, 4, 6, 3}, 10, []int{1, 3}},
		{"only light item fits", []int64{1, 2, 3}, []int64{4, 5, 1}, 1, []int{2}},
		{"zero-weight item at zero capacity", []int64{7, 3}, []int64{0, 1}, 0, []int{0}},
		{"nothing fits", []int64{5, 6}, []int64{9, 9}, 8, nil},
	}
	for _, c := range cases {
		idx, err := Knapsack01(c.values, c.weights, c.capacity)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(idx) != len(c.want) {
			t.Errorf("%s: selected %v, want %v", c.name, idx, c.want)
			continue
		}
		for i := range idx {
			if idx[i] != c.want[i] {
				t.Errorf("%s: selected %v, want %v", c.name, idx, c.want)
				break
			}
		}
		if got, want := sumAt(c.values, idx), bruteKnapsack(c.values, c.weights, c.capacity); got != want {
			t.Errorf("%s: value %d, brute force says %d", c.name, got, want)
		}
	}
}

// Property: the DP matches brute force on random small instances.
func TestKnapsack01MatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		values := make([]int64, n)
		weights := make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Intn(100))
			weights[i] = int64(rng.Intn(50))
		}
		cap := int64(rng.Intn(120))
		idx, err := Knapsack01(values, weights, cap)
		if err != nil {
			return false
		}
		if sumAt(weights, idx) > cap {
			return false
		}
		return sumAt(values, idx) == bruteKnapsack(values, weights, cap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Scaled capacities stay feasible (round-up on weights) even when the DP
// table cannot hold the raw capacity.
func TestKnapsack01ScalingStaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	values := make([]int64, n)
	weights := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.Intn(1000) + 1)
		weights[i] = int64(rng.Intn(1_000_000_000) + 1) // ~$1000 in micros
	}
	cap := int64(3_000_000_000)
	idx, err := Knapsack01(values, weights, cap)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAt(weights, idx); got > cap {
		t.Errorf("scaled solution weight %d exceeds capacity %d", got, cap)
	}
	if len(idx) == 0 {
		t.Error("scaled knapsack selected nothing despite generous capacity")
	}
}

// bruteCover minimizes cost subject to gain ≥ need by enumeration.
func bruteCover(costs, gains []int64, need int64) (int64, bool) {
	n := len(costs)
	best := int64(-1)
	for mask := 0; mask < 1<<n; mask++ {
		var c, g int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				c += costs[i]
				g += gains[i]
			}
		}
		if g >= need && (best < 0 || c < best) {
			best = c
		}
	}
	return best, best >= 0
}

func TestMinCostCoverBasic(t *testing.T) {
	costs := []int64{10, 4, 7}
	gains := []int64{5, 3, 4}
	idx, ok, err := MinCostCover(costs, gains, 7)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got := sumAt(gains, idx); got < 7 {
		t.Errorf("gain = %d < need", got)
	}
	if got := sumAt(costs, idx); got != 11 {
		t.Errorf("cost = %d, want 11 (items 1,2)", got)
	}
}

func TestMinCostCoverEdges(t *testing.T) {
	if idx, ok, err := MinCostCover(nil, nil, 0); err != nil || !ok || len(idx) != 0 {
		t.Errorf("need 0 = %v %v %v", idx, ok, err)
	}
	if _, ok, err := MinCostCover([]int64{1}, []int64{2}, 10); err != nil || ok {
		t.Errorf("uncoverable need reported ok=%v err=%v", ok, err)
	}
	if _, _, err := MinCostCover([]int64{1}, []int64{1, 2}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := MinCostCover([]int64{-1}, []int64{1}, 1); err == nil {
		t.Error("negative cost accepted")
	}
}

// Property: MinCostCover matches brute force on random small instances.
func TestMinCostCoverMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(9) + 1
		costs := make([]int64, n)
		gains := make([]int64, n)
		for i := range costs {
			costs[i] = int64(rng.Intn(100))
			gains[i] = int64(rng.Intn(40))
		}
		need := int64(rng.Intn(100))
		idx, ok, err := MinCostCover(costs, gains, need)
		if err != nil {
			return false
		}
		wantCost, wantOK := bruteCover(costs, gains, need)
		if ok != wantOK {
			return false
		}
		if !ok {
			return true
		}
		if sumAt(gains, idx) < need {
			return false
		}
		return sumAt(costs, idx) == wantCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// With scaling, covers remain true covers.
func TestMinCostCoverScalingStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	costs := make([]int64, n)
	gains := make([]int64, n)
	for i := range costs {
		costs[i] = int64(rng.Intn(100) + 1)
		gains[i] = int64(rng.Intn(2_000_000_000) + 1_000_000_000) // ~1h in ns
	}
	need := int64(8_000_000_000)
	idx, ok, err := MinCostCover(costs, gains, need)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got := sumAt(gains, idx); got < need {
		t.Errorf("scaled cover gain %d < need %d", got, need)
	}
}

// denseTable is the reference's scratch: dp sized to cells and filled
// with fill, keep sized to n×cells.
func denseTable(n int, cells int64, fill int64) (dp []int64, keep []bool) {
	dp = make([]int64, cells)
	for i := range dp {
		dp[i] = fill
	}
	return dp, make([]bool, int64(n)*cells)
}

// denseKnapsack01 is the capacity-indexed table DP that Knapsack01 was
// until the sparse frontier replaced it, kept verbatim (minus the table
// pool) as the reference the sparse DP must match index for index.
func denseKnapsack01(values, weights []int64, capacity int64) ([]int, error) {
	if len(values) != len(weights) {
		return nil, fmt.Errorf("optimizer: %d values vs %d weights", len(values), len(weights))
	}
	for i := range values {
		if values[i] < 0 || weights[i] < 0 {
			return nil, fmt.Errorf("optimizer: negative value/weight at item %d", i)
		}
	}
	if capacity < 0 {
		return nil, nil
	}
	n := len(values)
	if n == 0 {
		return nil, nil
	}
	// Scale weights so the DP table fits. Round weights UP so that a
	// selection feasible in scaled units is feasible in true units.
	scale := int64(1)
	if capacity+1 > int64(maxDPCells/max(n, 1)) {
		scale = (capacity + 1 + int64(maxDPCells/max(n, 1)) - 1) / int64(maxDPCells/max(n, 1))
	}
	scaledCap := capacity / scale
	w := make([]int64, n)
	for i := range weights {
		w[i] = (weights[i] + scale - 1) / scale
	}

	// dp[c] is the best value achievable with total scaled weight ≤ c.
	// Zero-initialization is correct because every state is reachable (the
	// empty selection has weight 0 ≤ c and value 0); no unreachable-state
	// sentinel is needed in this "at most c" formulation. keep is a flat
	// n×(scaledCap+1) matrix.
	cells := scaledCap + 1
	dp, keep := denseTable(n, cells, 0)
	for i := 0; i < n; i++ {
		row := keep[int64(i)*cells : int64(i+1)*cells]
		for c := scaledCap; c >= w[i]; c-- {
			if cand := dp[c-w[i]] + values[i]; cand > dp[c] {
				dp[c] = cand
				row[c] = true
			}
		}
	}
	// Trace back.
	var chosen []int
	c := scaledCap
	for i := n - 1; i >= 0; i-- {
		if keep[int64(i)*cells+c] {
			chosen = append(chosen, i)
			c -= w[i]
		}
	}
	slices.Reverse(chosen)
	return chosen, nil
}

// denseMinCostCover is MinCostCover's former table DP, kept as
// denseKnapsack01 is.
func denseMinCostCover(costs, gains []int64, need int64) ([]int, bool, error) {
	if len(costs) != len(gains) {
		return nil, false, fmt.Errorf("optimizer: %d costs vs %d gains", len(costs), len(gains))
	}
	for i := range costs {
		if costs[i] < 0 || gains[i] < 0 {
			return nil, false, fmt.Errorf("optimizer: negative cost/gain at item %d", i)
		}
	}
	if need <= 0 {
		return nil, true, nil
	}
	n := len(costs)
	var totalGain int64
	for _, g := range gains {
		totalGain += g
	}
	if totalGain < need {
		return nil, false, nil
	}
	// Scale gains down (round DOWN) so a scaled cover is a true cover; the
	// need is scaled up correspondingly.
	scale := int64(1)
	if need+1 > int64(maxDPCells/max(n, 1)) {
		scale = (need + 1 + int64(maxDPCells/max(n, 1)) - 1) / int64(maxDPCells/max(n, 1))
	}
	g := make([]int64, n)
	var scaledTotal int64
	for i := range gains {
		g[i] = gains[i] / scale
		scaledTotal += g[i]
	}
	target := (need + scale - 1) / scale
	if scaledTotal < target {
		// Rounding destroyed feasibility; fall back to taking everything
		// (feasible in true units by the totalGain check above).
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, true, nil
	}

	const inf = math.MaxInt64 / 4
	// dp[s] = min cost to reach scaled gain ≥ s (s capped at target).
	cells := target + 1
	dp, keep := denseTable(n, cells, inf)
	dp[0] = 0
	for i := 0; i < n; i++ {
		row := keep[int64(i)*cells : int64(i+1)*cells]
		for s := target; s >= 1; s-- {
			from := s - g[i]
			if from < 0 {
				from = 0
			}
			if from == s {
				continue // zero-gain item never helps coverage
			}
			if dp[from] < inf && dp[from]+costs[i] < dp[s] {
				dp[s] = dp[from] + costs[i]
				row[s] = true
			}
		}
	}
	if dp[target] >= inf {
		return nil, false, nil
	}
	var chosen []int
	s := target
	for i := n - 1; i >= 0; i-- {
		if s > 0 && keep[int64(i)*cells+s] {
			chosen = append(chosen, i)
			s -= g[i]
			if s < 0 {
				s = 0
			}
		}
	}
	slices.Reverse(chosen)
	return chosen, true, nil
}

// dpCase draws one problem for both DPs: a holds the values (cover:
// costs), b the weights (cover: gains), limit the capacity (cover:
// need). mode picks the size regime of b and limit so that cases fall on
// both sides of the scaling threshold; a fifth of the entries are zeroed
// and some items duplicated, the ties the decision rule has to break
// the way the table did.
func dpCase(rng *rand.Rand, n int, mode uint8) (a, b []int64, limit int64) {
	aMax, bMax := int64(4e12), int64(1e9) // hours in ns, ~$1000 in µ$
	switch mode % 4 {
	case 0: // tiny: unscaled, brute-force sized
		aMax, bMax = 100, 50
	case 1: // micro-dollar weights, scaled by thousands
	case 2: // just under and over the threshold
		bMax = int64(maxDPCells / n / 2)
	case 3: // tiny weights under a huge limit: everything fits
		bMax = 50
	}
	a, b = make([]int64, n), make([]int64, n)
	for i := range a {
		a[i], b[i] = rng.Int63n(aMax)+1, rng.Int63n(bMax)+1
		switch rng.Intn(10) {
		case 0:
			a[i] = 0
		case 1:
			b[i] = 0
		case 2:
			if i > 0 {
				a[i], b[i] = a[i-1], b[i-1]
			}
		}
	}
	var sum int64
	for _, x := range b {
		sum += x
	}
	if mode%4 == 3 {
		return a, b, int64(1e9) + rng.Int63n(1e9)
	}
	return a, b, rng.Int63n(sum + sum/4 + 2)
}

// checkSparseMatchesDense requires both DPs to return what the dense
// reference returns for the same input: the same indices and ok.
func checkSparseMatchesDense(t *testing.T, a, b []int64, limit int64) {
	t.Helper()
	got, err := Knapsack01(a, b, limit)
	want, wantErr := denseKnapsack01(a, b, limit)
	if (err != nil) != (wantErr != nil) || !slices.Equal(got, want) {
		t.Fatalf("Knapsack01(%v, %v, %d) = %v, %v; dense %v, %v", a, b, limit, got, err, want, wantErr)
	}
	gotC, ok, err := MinCostCover(a, b, limit)
	wantC, wantOK, wantErr := denseMinCostCover(a, b, limit)
	if (err != nil) != (wantErr != nil) || ok != wantOK || !slices.Equal(gotC, wantC) {
		t.Fatalf("MinCostCover(%v, %v, %d) = %v, %v, %v; dense %v, %v, %v", a, b, limit, gotC, ok, err, wantC, wantOK, wantErr)
	}
}

// Property: the sparse frontier DP is the dense table DP, selection for
// selection, across item counts, size regimes and degenerate items.
func TestSparseMatchesDense(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 80
	}
	rng := rand.New(rand.NewSource(20260930))
	for i := 0; i < cases; i++ {
		a, b, limit := dpCase(rng, rng.Intn(20)+1, uint8(i))
		checkSparseMatchesDense(t, a, b, limit)
	}
}

// FuzzKnapsackSparseVsDense lets the fuzzer pick the item count, the
// size regime and the limit of a dpCase.
func FuzzKnapsackSparseVsDense(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(1), int64(2_000_000))
	f.Add(int64(2), uint8(16), uint8(0), int64(60))
	f.Add(int64(3), uint8(20), uint8(2), int64(maxDPCells/20))
	f.Add(int64(4), uint8(1), uint8(3), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, n, mode uint8, limit int64) {
		a, b, drawn := dpCase(rand.New(rand.NewSource(seed)), int(n%20)+1, mode)
		// The dense reference overflows its table size beyond this; the
		// overflow guard has its own test.
		if limit < 0 || limit > 1<<40 {
			limit = drawn
		}
		checkSparseMatchesDense(t, a, b, limit)
	})
}

// The work a solve does is bounded by what its items can reach: prefix k
// has at most min(2ᵏ, scaledCap+1) states, each a strict improvement on
// the one before, so the whole arena stays within min(2ⁿ, n·(scaledCap+1))
// — never more than the dense table had cells.
func TestFrontierWorkBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d frontierDP
	checkArena := func(n int, limit, cells int64) {
		t.Helper()
		for k := 0; k < n; k++ {
			p := d.prefix(k)
			if bound := min(int64(1)<<k, cells); int64(len(p)) > bound {
				t.Fatalf("n=%d limit=%d: |P_%d| = %d > %d", n, limit, k, len(p), bound)
			}
			for j := 1; j < len(p); j++ {
				if p[j].w <= p[j-1].w || p[j].v <= p[j-1].v {
					t.Fatalf("n=%d limit=%d: P_%d not a frontier at %d: %v", n, limit, k, j, p[j-1:j+1])
				}
			}
		}
		if bound := min(int64(1)<<n, int64(n)*cells); int64(len(d.states)) > bound {
			t.Fatalf("n=%d limit=%d: %d states > %d", n, limit, len(d.states), bound)
		}
	}
	for i := 0; i < 200; i++ {
		n := rng.Intn(20) + 1
		a, b, limit := dpCase(rng, n, uint8(i))
		scale := dpScale(n, limit)
		if _, err := d.knapsack01(a, b, limit); err != nil {
			t.Fatal(err)
		}
		checkArena(n, limit, limit/scale+1)
		// A cover that returns before its DP leaves the knapsack's arena,
		// which is within the cover's (larger) bound too.
		if _, _, err := d.minCostCover(a, b, limit); err != nil {
			t.Fatal(err)
		}
		checkArena(n, limit, ceilDiv(limit, scale)+1)
	}

	// The paper's 16-node lattice, 8 paying candidates, budgets from a
	// cent above the base bill to far past everything.
	sess, _, _ := sweepFixture(t)
	before := obs.DPStates.Value()
	for _, dollars := range []float64{0.94, 1.2, 1.5, 2, 5, 400} {
		if _, err := sess.SolveMV1(money.FromDollars(dollars)); err != nil {
			t.Fatal(err)
		}
		if got := len(sess.dp.states); got == 0 || got > 256 {
			t.Errorf("paper MV1 at $%g built %d states, want 1..256", dollars, got)
		}
	}
	if obs.DPStates.Value() == before {
		t.Error("mvcloud_solver_dp_states_total did not move across MV1 solves")
	}
}

// A warm frontierDP re-solves without allocating: the break-even sweep's
// K budgets per cell cost K merges and nothing else.
func TestFrontierDPReusesScratch(t *testing.T) {
	a, b, limit := dpCase(rand.New(rand.NewSource(5)), 16, 1)
	var d frontierDP
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.knapsack01(a, b, limit); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.minCostCover(a, b, limit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm solves allocate %.0f times per run, want 0", allocs)
	}
}

// The scale factor is computed without forming limit+1, so the largest
// int64 is a limit like any other.
func TestDPLimitMaxInt64(t *testing.T) {
	idx, err := Knapsack01([]int64{3, 4}, []int64{math.MaxInt64, 1}, math.MaxInt64)
	if err != nil || !slices.Equal(idx, []int{1}) {
		t.Errorf("Knapsack01 at MaxInt64 = %v, %v; want [1] (item 0 rounds up past the scaled capacity)", idx, err)
	}
	if _, ok, err := MinCostCover([]int64{1}, []int64{5}, math.MaxInt64); err != nil || ok {
		t.Errorf("MinCostCover of an uncoverable MaxInt64 need: ok=%v err=%v", ok, err)
	}
	idx, ok, err := MinCostCover([]int64{1, 2}, []int64{math.MaxInt64, 0}, math.MaxInt64)
	if err != nil || !ok || sumAt([]int64{math.MaxInt64, 0}, idx) < math.MaxInt64 {
		t.Errorf("MinCostCover at MaxInt64 = %v, %v, %v; want a true cover", idx, ok, err)
	}
}

// BenchmarkKnapsack01 prints solve cost against item count and capacity
// for one fixed item set per n (weights up to $200 in µ$): ns/op and
// states/op follow what fits, where the table DP cost
// n × min(capacity, maxDPCells/n) whatever the items were.
func BenchmarkKnapsack01(b *testing.B) {
	benchDP(b, func(d *frontierDP, values, weights []int64, limit int64) error {
		_, err := d.knapsack01(values, weights, limit)
		return err
	})
}

// BenchmarkMinCostCover is BenchmarkKnapsack01 for the cover DP: the
// same items read as (cost, gain) and the capacity as the need.
func BenchmarkMinCostCover(b *testing.B) {
	benchDP(b, func(d *frontierDP, costs, gains []int64, limit int64) error {
		_, ok, err := d.minCostCover(costs, gains, limit)
		if err == nil && !ok {
			err = fmt.Errorf("need %d not coverable", limit)
		}
		return err
	})
}

func benchDP(b *testing.B, solve func(d *frontierDP, values, weights []int64, limit int64) error) {
	for _, n := range []int{7, 16, 48} {
		rng := rand.New(rand.NewSource(1))
		values, weights := make([]int64, n), make([]int64, n)
		for i := range values {
			values[i] = int64(rng.Intn(10_000) + 1)
			weights[i] = int64(rng.Intn(200_000_000) + 1)
		}
		for _, limit := range []int64{1e3, 2e6, 5e8} {
			b.Run(fmt.Sprintf("n=%d/cap=%.0e", n, float64(limit)), func(b *testing.B) {
				var d frontierDP
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := solve(&d, values, weights, limit); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(d.states)), "states/op")
			})
		}
	}
}
