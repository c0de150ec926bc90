package main

// calib.go measures how fast the machine is right now, with code that
// never changes. The sandbox is shared: for seconds or minutes at a
// time a neighbour leans on the memory system and the same binary on
// the same inputs runs 25-90% slower, and no statistic taken inside a
// window can see a slowdown that outlasts the window. So the clients
// time a frozen copy of the dense knapsack table fill — the memory-bound
// kernel that dominates the solver workloads — twenty times per window,
// and every time-based end-to-end metric is divided by speedFactor of
// the window's mean probe: reported in milliseconds of the quiet
// reference machine, not of whatever the neighbours left.
//
// The kernel lives here, not in the repository's packages, so a change
// to the solver moves the measurement and not the ruler.

import (
	"math"
	"time"
)

// probeQuietMs is what probe returns on the reference sandbox (2 cores,
// 2026-09) when nobody else is using it. On other hardware it only
// rescales every metric by one constant.
const probeQuietMs = 2.05

// calibExponent is how strongly the system under test follows the
// probe: time ∝ probe^0.75. Measured on this sandbox over some hundred
// runs while the probe's window mean moved between 2.05 and 3.9 ms, the
// end-to-end metrics followed it with exponents from 0.3 (advise-cold
// p50: mostly net/http) to 1.05 (compare-cold p50: almost all table
// fill). One exponent for everything, because per-metric exponents would
// be a fit, not a ruler; 0.75 leaves the smallest worst case — the
// medians of ten runs taken quiet and ten taken loud differ by at most
// 17% on any metric, against 30-58% uncorrected — and brings the spread
// between runs (interquartile range ÷ median) from 20-40% down to 3-15%.
const calibExponent = 0.75

// speedFactor converts a probe level into how much slower than the
// quiet reference the system under test is expected to run.
func speedFactor(probeMs float64) float64 {
	if probeMs <= 0 {
		return 1
	}
	return math.Pow(probeMs/probeQuietMs, calibExponent)
}

const (
	calibItems = 15
	calibCells = 1 << 21 / calibItems // the dense DP's table: n × cells ≈ 2M
)

type calibScratch struct {
	dp   []int64
	keep []bool
	v, w [calibItems]int64
}

func newCalibScratch() *calibScratch {
	s := &calibScratch{dp: make([]int64, calibCells), keep: make([]bool, calibItems*calibCells)}
	for i := range s.v {
		s.v[i], s.w[i] = int64(1000+37*i), int64(3000+1100*i)
	}
	return s
}

// memUnit is one fill of the knapsack table, frozen.
func (s *calibScratch) memUnit() {
	clear(s.dp)
	clear(s.keep)
	for i := 0; i < calibItems; i++ {
		row := s.keep[i*calibCells : (i+1)*calibCells]
		wi := s.w[i]
		for c := int64(calibCells - 1); c >= wi; c-- {
			if cand := s.dp[c-wi] + s.v[i]; cand > s.dp[c] {
				s.dp[c] = cand
				row[c] = true
			}
		}
	}
}

// probe runs the kernel three times and returns the fastest, in ms.
func (s *calibScratch) probe() float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s.memUnit()
		best = min(best, time.Since(t0))
	}
	return float64(best) / 1e6
}
