package core

import (
	"slices"
	"testing"
	"time"

	"vmcloud/internal/money"
)

// nonDominatedScan is the O(n²) definition NonDominated is held to:
// every item that no item dominates, in input order.
func nonDominatedScan(all []ParetoPoint) []ParetoPoint {
	dominates := func(p, q ParetoPoint) bool {
		return p.Time <= q.Time && p.Cost <= q.Cost && (p.Time < q.Time || p.Cost < q.Cost)
	}
	var front []ParetoPoint
	for _, p := range all {
		if !slices.ContainsFunc(all, func(q ParetoPoint) bool { return dominates(q, p) }) {
			front = append(front, p)
		}
	}
	return front
}

func identity(p ParetoPoint) ParetoPoint { return p }

// pts builds points from (time, cost) pairs, each tagged with its input
// position in Views so that order and identity are both compared.
func pts(tc ...int) []ParetoPoint {
	out := make([]ParetoPoint, 0, len(tc)/2)
	for i := 0; i+1 < len(tc); i += 2 {
		out = append(out, ParetoPoint{Time: time.Duration(tc[i]), Cost: money.Money(tc[i+1]), Views: i / 2})
	}
	return out
}

func checkNonDominated(t *testing.T, all []ParetoPoint) {
	t.Helper()
	want := nonDominatedScan(all)
	got := NonDominated(nil, all, identity, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("NonDominated(%v) = %v, the scan keeps %v", all, got, want)
	}
	// On scratch of its own and behind what front already holds.
	prefix := pts(9, 9)
	got = NonDominated(prefix, all, identity, make([]int, 2*len(all)+3))
	if !slices.Equal(got[1:], want) || got[0] != prefix[0] {
		t.Fatalf("NonDominated(%v) behind a prefix = %v, the scan keeps %v", all, got, want)
	}
}

// TestNonDominatedMatchesScan holds the sort-and-sweep to the scan on
// the cases its run logic turns on: ties in time, in cost and in both,
// a chain, an item dominated only by a faster one at equal cost, and
// input orders the sort has to undo.
func TestNonDominatedMatchesScan(t *testing.T) {
	for name, all := range map[string][]ParetoPoint{
		"empty":                   nil,
		"one":                     pts(5, 5),
		"equal points both stay":  pts(3, 4, 3, 4),
		"equal time, dearer goes": pts(3, 5, 3, 4, 3, 4, 3, 6),
		"equal cost, slower goes": pts(4, 3, 2, 3, 3, 3),
		"chain":                   pts(1, 1, 2, 2, 3, 3, 4, 4),
		"frontier":                pts(1, 9, 2, 7, 3, 5, 4, 3, 5, 1),
		"reversed frontier":       pts(5, 1, 4, 3, 3, 5, 2, 7, 1, 9),
		"faster at equal cost":    pts(2, 5, 1, 5, 1, 6),
		"mixed":                   pts(3, 3, 1, 8, 3, 2, 2, 8, 5, 0, 4, 2, 1, 9, 5, 0, 2, 2),
		"negative costs":          pts(2, -3, 1, -1, 3, -3, 0, 4),
	} {
		t.Run(name, func(t *testing.T) { checkNonDominated(t, all) })
	}
}

// TestNonDominatedAllocs: on scratch large enough and a front with room,
// the sweep allocates nothing, as the scan did.
func TestNonDominatedAllocs(t *testing.T) {
	all := pts(1, 9, 2, 7, 3, 5, 4, 3, 5, 1, 3, 3, 1, 8, 3, 2, 2, 8, 5, 0, 4, 2)
	front := make([]ParetoPoint, 0, len(all))
	scratch := make([]int, 2*len(all))
	if n := testing.AllocsPerRun(100, func() { NonDominated(front, all, identity, scratch) }); n != 0 {
		t.Errorf("NonDominated allocates %.0f times on its own scratch, want 0", n)
	}
}

// FuzzNonDominated holds the sort-and-sweep to the scan on up to 128
// points from a small grid, so that ties in time, cost or both are
// common.
func FuzzNonDominated(f *testing.F) {
	f.Add([]byte{3, 3, 1, 8, 3, 2, 2, 8, 5, 0})
	f.Add([]byte{7, 7, 7, 7, 7, 6, 6, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		tc := make([]int, len(data))
		for i, b := range data {
			tc[i] = int(b%16) - 4
		}
		checkNonDominated(t, pts(tc...))
	})
}
