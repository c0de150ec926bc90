// Package optimizer implements the paper's optimization process (Section
// 5): selecting the subset of candidate materialized views under the three
// objective scenarios MV1 (minimize workload time under a budget), MV2
// (minimize monetary cost under a response-time limit) and MV3 (minimize
// the weighted time/cost tradeoff), solved — as in the paper — as a 0/1
// knapsack via dynamic programming, with an exhaustive oracle and a greedy
// heuristic as baselines.
package optimizer

import (
	"fmt"
	"slices"
	"sort"

	"vmcloud/internal/obs"
)

// maxDPCells bounds the DP's resolution: a capacity too large for
// n × (capacity+1) ≤ maxDPCells is scaled down (with conservative
// rounding) until it fits. Nothing of that size is allocated — frontierDP
// is sparse — but the scale factor decides which selections tie, so it
// is part of the answer.
const maxDPCells = 1 << 21

// state is one pareto-optimal point of a prefix frontier: the scaled
// weight a subset of the first k items uses and the best value any
// subset reaches at that weight or below.
type state struct{ w, v int64 }

// frontierDP is the sparse (Nemhauser–Ullmann) form of the 0/1-knapsack
// DP. Where the table DP holds f_k(c) — the best value of the first k
// items within capacity c — for every c, prefix frontier P_k holds only
// the points where f_k steps up: states ascending in w and strictly
// ascending in v, so f_k(c) is the v of the last state with w ≤ c.
// P_{k+1} is one linear merge of P_k with its copy shifted by item k, so
// |P_k| ≤ min(2ᵏ, capacity+1) and a solve costs what its items can
// actually reach, not what the capacity could hold.
//
// All prefixes P_0 … P_{n-1} stay in one arena: the backtrack decides
// item i from f_i alone (two binary searches in P_i), so P_n is never
// built. The zero value is ready to use; a KernelSession keeps one so a
// break-even sweep re-solves without allocating.
type frontierDP struct {
	states []state // P_0 | P_1 | … back to back
	starts []int   // P_k = states[starts[k]:starts[k+1]]
	scaled []int64 // the items' scaled weights (gains for the cover)
	chosen []int   // the answer; valid until the next solve
}

// reset starts a solve from P_0 = {origin}.
func (d *frontierDP) reset(origin state) {
	d.states = append(d.states[:0], origin)
	d.starts = append(d.starts[:0], 0, 1)
}

// prefix returns P_k.
func (d *frontierDP) prefix(k int) []state {
	return d.states[d.starts[k]:d.starts[k+1]]
}

// extend appends the next prefix: the pareto frontier of the last prefix
// P united with the first cut states of P each moved to
// (max(0, w+dw), v+dv). Both inputs ascend in w, so this is one merge
// that keeps a state only if it beats the value of everything lighter.
func (d *frontierDP) extend(cut int, dw, dv int64) {
	k := len(d.starts) - 2
	// Grown up front so the appends below never move the arena out from
	// under prev.
	d.states = slices.Grow(d.states, d.starts[k+1]-d.starts[k]+cut)
	prev := d.prefix(k)
	out, base := d.states, len(d.states)
	for i, j := 0, 0; i < len(prev) || j < cut; {
		var s state
		if j < cut {
			s = state{max(0, prev[j].w+dw), prev[j].v + dv}
		}
		if j == cut || (i < len(prev) && prev[i].w <= s.w) {
			s = prev[i]
			i++
		} else {
			j++
		}
		switch last := len(out) - 1; {
		case last < base:
			out = append(out, s)
		case out[last].w == s.w:
			out[last].v = max(out[last].v, s.v)
		case s.v > out[last].v:
			out = append(out, s)
		}
	}
	d.states = out
	d.starts = append(d.starts, len(out))
}

// reach counts the states of frontier f with w ≤ c. When it is non-zero,
// f[reach-1].v is the table DP's f(c).
func reach(f []state, c int64) int {
	return sort.Search(len(f), func(i int) bool { return f[i].w > c })
}

// ceilDiv is ⌈a/b⌉ for a ≥ 0 and b > 0, without the overflow of
// (a+b-1)/b near math.MaxInt64.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// dpScale is the factor that fits limit+1 cells per item into
// maxDPCells: 1 while they fit, ⌈(limit+1)/per⌉ beyond, written so that
// limit = math.MaxInt64 does not overflow.
func dpScale(n int, limit int64) int64 {
	return limit/int64(maxDPCells/n) + 1
}

// Knapsack01 solves the 0/1 knapsack problem: choose a subset of items
// maximizing Σ values[i] subject to Σ weights[i] ≤ capacity. Values and
// weights must be non-negative. Returns the chosen indices in increasing
// order. When the capacity is large, weights are scaled down with
// round-up so the returned subset never exceeds the true capacity.
func Knapsack01(values, weights []int64, capacity int64) ([]int, error) {
	return new(frontierDP).knapsack01(values, weights, capacity)
}

// knapsack01 is Knapsack01 on d's scratch; the result aliases d.chosen.
func (d *frontierDP) knapsack01(values, weights []int64, capacity int64) ([]int, error) {
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
	// Round weights UP so that a selection feasible in scaled units is
	// feasible in true units.
	scale := dpScale(n, capacity)
	scaledCap := capacity / scale
	w := d.scaled[:0]
	for i := range weights {
		w = append(w, ceilDiv(weights[i], scale))
	}
	d.scaled = w

	// Every state is reachable (the empty selection weighs 0), so P_0 is
	// the single state (0, 0) and every prefix starts at weight 0.
	d.reset(state{0, 0})
	for i := 0; i < n-1; i++ {
		// Only states that still fit after taking item i are shifted.
		d.extend(reach(d.prefix(i), scaledCap-w[i]), w[i], values[i])
	}
	obs.DPStates.Add(int64(len(d.states)))

	// Trace back with the table DP's rule (denseKnapsack01 in the tests):
	// item i is taken at capacity c iff f_i(c − w_i) + v_i > f_i(c),
	// strictly.
	chosen := d.chosen[:0]
	c := scaledCap
	for i := n - 1; i >= 0; i-- {
		if c < w[i] {
			continue
		}
		f := d.prefix(i)
		if f[reach(f, c-w[i])-1].v+values[i] > f[reach(f, c)-1].v {
			chosen = append(chosen, i)
			c -= w[i]
		}
	}
	slices.Reverse(chosen)
	d.chosen = chosen
	return chosen, nil
}

// minCostCover chooses a subset minimizing Σ costs[i] subject to
// Σ gains[i] ≥ need, on d's scratch; the indices alias d.chosen. Costs
// and gains must be non-negative. It returns the chosen indices and
// whether the need is coverable at all. Gains are scaled down with
// round-down, so the returned subset always truly covers the need.
func (d *frontierDP) minCostCover(costs, gains []int64, need int64) ([]int, bool, error) {
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
	scale := dpScale(n, need)
	target := ceilDiv(need, scale)
	g := d.scaled[:0]
	var scaledTotal int64
	for i := range gains {
		gi := gains[i] / scale
		scaledTotal += gi
		g = append(g, min(gi, target)) // gain past the target is no gain
	}
	d.scaled = g
	if scaledTotal < target {
		// Rounding destroyed feasibility; fall back to taking everything
		// (feasible in true units by the totalGain check above).
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, true, nil
	}

	// The cover is the same DP run in deficit space. A state is (scaled
	// gain still missing, −cost): taking item i moves the deficit down by
	// g_i, stopping at 0, and the value down by c_i, so the table DP's
	// dp_i[s] — the min cost of the first i items reaching gain ≥ s — is
	// −f_i(target − s), and "unreachable" is an empty reach.
	d.reset(state{target, 0})
	for i := 0; i < n-1; i++ {
		d.extend(len(d.prefix(i)), -g[i], -costs[i])
	}
	obs.DPStates.Add(int64(len(d.states)))

	// Trace back with the table DP's rule: at remaining need s item i
	// is taken iff g_i > 0, dp_i[s − g_i] is reachable and
	// dp_i[s − g_i] + c_i < dp_i[s], strictly. c is target − s.
	chosen := d.chosen[:0]
	c := int64(0)
	for i := n - 1; i >= 0 && c < target; i-- {
		if g[i] == 0 {
			continue // zero-gain item never helps coverage
		}
		f := d.prefix(i)
		with := reach(f, min(target, c+g[i]))
		if with == 0 {
			continue
		}
		if without := reach(f, c); without == 0 || f[with-1].v-costs[i] > f[without-1].v {
			chosen = append(chosen, i)
			c = min(target, c+g[i])
		}
	}
	slices.Reverse(chosen)
	d.chosen = chosen
	return chosen, true, nil
}
