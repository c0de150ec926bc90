package optimizer

import (
	"cmp"
	"math"
	"math/big"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
)

// tradeoffBound is normalized MV3's exact domain: while every time (ns)
// and cost (µ$), baselines included, is at most 2⁵⁴, Compare's key is at
// most 10⁶·2¹⁰⁸ < 2¹²⁸ and exact (Scenario.key).
const tradeoffBound = 1 << 54

func billOf(cost money.Money) costmodel.Bill { return costmodel.Bill{Storage: cost} }

func tradeoff(t *testing.T, alpha float64, mode TradeoffMode, baseT time.Duration, baseCost money.Money) Scenario {
	t.Helper()
	sc, err := Tradeoff(alpha, mode, baseT, billOf(baseCost))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestScenarioTieOrder pins each scenario's order where it is easy to get
// wrong: a met constraint first, then the primary key, then the lower
// cost, then the lower time — between two infeasible outcomes as well,
// where the primary key still comes before how far each one misses.
func TestScenarioTieOrder(t *testing.T) {
	const B = tradeoffBound
	h := time.Hour
	usd := money.FromDollars
	mv1, mv2 := Budget(usd(10)), Deadline(2*h)
	for _, c := range []struct {
		name       string
		sc         Scenario
		a, b       Outcome
		want       int
		metA, metB bool
	}{
		{"mv1 met beats faster unmet", mv1, Outcome{5 * h, usd(10)}, Outcome{h, usd(11)}, -1, true, false},
		{"mv1 time first", mv1, Outcome{h, usd(9)}, Outcome{2 * h, usd(1)}, -1, true, true},
		{"mv1 equal time: lower cost", mv1, Outcome{h, usd(2)}, Outcome{h, usd(3)}, -1, true, true},
		{"mv1 equal", mv1, Outcome{h, usd(2)}, Outcome{h, usd(2)}, 0, true, true},
		{"mv1 both unmet: time before overshoot", mv1, Outcome{h, usd(13)}, Outcome{2 * h, usd(12)}, -1, false, false},
		{"mv1 both unmet, equal time: lower cost", mv1, Outcome{h, usd(12)}, Outcome{h, usd(13)}, -1, false, false},
		{"mv2 met beats cheaper unmet", mv2, Outcome{2 * h, usd(10)}, Outcome{3 * h, usd(1)}, -1, true, false},
		{"mv2 cost first", mv2, Outcome{2 * h, usd(1)}, Outcome{h, usd(2)}, -1, true, true},
		{"mv2 equal cost: lower time", mv2, Outcome{h, usd(2)}, Outcome{2 * h, usd(2)}, -1, true, true},
		{"mv2 both unmet: cost before overshoot", mv2, Outcome{9 * h, usd(1)}, Outcome{3 * h, usd(2)}, -1, false, false},
		{"mv2 both unmet, equal cost: lower time", mv2, Outcome{3 * h, usd(2)}, Outcome{4 * h, usd(2)}, -1, false, false},
		// α = ½: an hour weighs what a dollar does, so these two tie on
		// Formula 15 and the cheaper one ranks first.
		{"mv3 raw tie: lower cost", tradeoff(t, 0.5, RawTradeoff, 0, 0), Outcome{h, 0}, Outcome{0, usd(1)}, -1, true, true},
		{"mv3 raw objective first", tradeoff(t, 0.5, RawTradeoff, 0, 0), Outcome{h, usd(1)}, Outcome{3 * h, 0}, -1, true, true},
		{"mv3 raw equal", tradeoff(t, 0.25, RawTradeoff, 0, 0), Outcome{h, usd(1)}, Outcome{h, usd(1)}, 0, true, true},
		// Normalized by (2 ns, 4 µ$): T/2 + C/4 ties at (2, 0) and (0, 4).
		{"mv3 normalized tie: lower cost", tradeoff(t, 0.5, NormalizedTradeoff, 2, 4), Outcome{2, 0}, Outcome{0, 4}, -1, true, true},
		{"mv3 normalized tie, equal cost: lower time", tradeoff(t, 0.5, NormalizedTradeoff, 2, 4), Outcome{3, 2}, Outcome{4, 2}, -1, true, true},
		// The edge of the exact domain: every operand at 2⁵⁴, a key of
		// 10⁶·2¹⁰⁸ < 2¹²⁸, and one unit of time still tells them apart.
		{"mv3 normalized at the bound", tradeoff(t, 0.5, NormalizedTradeoff, B, B), Outcome{B - 1, B}, Outcome{B, B}, -1, true, true},
		{"mv3 normalized at the bound, tie", tradeoff(t, 0.5, NormalizedTradeoff, B, B), Outcome{B, 0}, Outcome{0, B}, -1, true, true},
		// Far past it both keys overflow 128 bits and saturate alike, so
		// the cheaper outcome ranks first though it is slower.
		{"mv3 normalized past the bound saturates", tradeoff(t, 1, NormalizedTradeoff, B, B), Outcome{math.MaxInt64, 0}, Outcome{math.MaxInt64 - 1, 1}, -1, true, true},
	} {
		got := c.sc.Compare(c.a, c.b)
		if cmp.Compare(got, 0) != c.want {
			t.Errorf("%s: Compare(%v, %v) = %d, want sign %d", c.name, c.a, c.b, got, c.want)
		}
		if back := c.sc.Compare(c.b, c.a); cmp.Compare(back, 0) != -c.want {
			t.Errorf("%s: Compare(b, a) = %d, want sign %d", c.name, back, -c.want)
		}
		for _, o := range []struct {
			o   Outcome
			met bool
		}{{c.a, c.metA}, {c.b, c.metB}} {
			bill := billOf(o.o.Cost)
			if got := c.sc.Met(o.o.Time, bill); got != o.met {
				t.Errorf("%s: Met%v = %v, want %v", c.name, o.o, got, o.met)
			}
			if v := c.sc.Violation(o.o); (v == 0) != o.met {
				t.Errorf("%s: Violation%v = %g, but Met is %v", c.name, o.o, v, o.met)
			}
		}
	}
}

// TestTradeoffAlpha: Tradeoff refuses an α outside [0,1] (NaN included),
// and snaps the rest to the 10⁻⁶ grid, so α values a grid step apart
// rank alike.
func TestTradeoffAlpha(t *testing.T) {
	for _, alpha := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := Tradeoff(alpha, RawTradeoff, 0, costmodel.Bill{}); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Errorf("alpha %g: error %v, want out of [0,1]", alpha, err)
		}
	}
	for _, c := range []struct {
		alpha float64
		grid  uint64
	}{{0, 0}, {1, alphaGrid}, {0.3, 300_000}, {0.3000004, 300_000}, {0.3000006, 300_001}, {1.0 / 3, 333_333}} {
		sc := tradeoff(t, c.alpha, RawTradeoff, 0, 0)
		if sc.alphaMicros != c.grid {
			t.Errorf("alpha %g snapped to %d, want %d", c.alpha, sc.alphaMicros, c.grid)
		}
	}
	if tradeoff(t, 0.3000004, RawTradeoff, 0, 0) != tradeoff(t, 0.3, RawTradeoff, 0, 0) {
		t.Error("α a sub-grid step from 0.3 is a different scenario")
	}
}

// FuzzScenarioOrder holds MV3's integer order to Formula 15 in exact
// rationals (math/big), in both modes: α·T/dT + (1−α)·C/dC with α on the
// 10⁻⁶ grid, dT and dC the no-view baseline (normalized) or an hour and
// a dollar (raw, or a zero baseline), ties to the lower cost, then the
// lower time. Raw operands range over all non-negative int64; normalized
// ones over [0, tradeoffBound], the domain where the key is exact.
func FuzzScenarioOrder(f *testing.F) {
	const B = tradeoffBound
	hour, dollar := uint64(time.Hour), uint64(money.FromDollars(1))
	f.Add(0.5, false, hour, uint64(0), uint64(0), dollar, uint64(0), uint64(0))          // exact tie
	f.Add(0.5, true, uint64(2), uint64(0), uint64(0), uint64(4), uint64(2), uint64(4))   // normalized tie
	f.Add(0.5, true, uint64(B), uint64(B), uint64(B), uint64(B-1), uint64(B), uint64(B)) // the 128-bit edge
	f.Add(0.5, true, uint64(B), uint64(0), uint64(0), uint64(B), uint64(B), uint64(B))   // a tie at the edge
	f.Add(1e-6, false, uint64(math.MaxInt64), uint64(math.MaxInt64), uint64(math.MaxInt64-1), uint64(math.MaxInt64), uint64(0), uint64(0))
	f.Add(1.0/3, true, uint64(7e12), uint64(2_390_000), uint64(6e12), uint64(2_500_000), uint64(9e12), uint64(2_100_000))
	f.Add(0.3000004, false, uint64(1), uint64(1), uint64(1), uint64(1), uint64(0), uint64(0))
	f.Add(1.5, false, uint64(1), uint64(2), uint64(3), uint64(4), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, alpha float64, normalized bool, t1, c1, t2, c2, t0, c0 uint64) {
		mode := RawTradeoff
		in := func(x uint64) uint64 { return x & math.MaxInt64 }
		if normalized {
			mode = NormalizedTradeoff
			in = func(x uint64) uint64 { return x % (B + 1) }
		}
		t1, c1, t2, c2, t0, c0 = in(t1), in(c1), in(t2), in(c2), in(t0), in(c0)
		sc, err := Tradeoff(alpha, mode, time.Duration(t0), billOf(money.Money(c0)))
		if !(alpha >= 0 && alpha <= 1) {
			if err == nil {
				t.Fatalf("alpha %g accepted", alpha)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		a := new(big.Rat).SetFrac64(int64(math.Round(alpha*alphaGrid)), alphaGrid)
		dT, dC := hour, dollar
		if normalized && t0 > 0 {
			dT = t0
		}
		if normalized && c0 > 0 {
			dC = c0
		}
		formula15 := func(tm, cost uint64) *big.Rat {
			tv := new(big.Rat).SetFrac(new(big.Int).SetUint64(tm), new(big.Int).SetUint64(dT))
			cv := new(big.Rat).SetFrac(new(big.Int).SetUint64(cost), new(big.Int).SetUint64(dC))
			rest := new(big.Rat).Sub(big.NewRat(1, 1), a)
			return new(big.Rat).Add(tv.Mul(tv, a), cv.Mul(cv, rest))
		}
		want := formula15(t1, c1).Cmp(formula15(t2, c2))
		if want == 0 {
			want = cmp.Compare(c1, c2)
		}
		if want == 0 {
			want = cmp.Compare(t1, t2)
		}
		oa := Outcome{Time: time.Duration(t1), Cost: money.Money(c1)}
		ob := Outcome{Time: time.Duration(t2), Cost: money.Money(c2)}
		if got := sc.Compare(oa, ob); cmp.Compare(got, 0) != want {
			t.Fatalf("α %g mode %v base (%d, %d): Compare(%v, %v) = %d, Formula 15 says %d", alpha, mode, t0, c0, oa, ob, got, want)
		}
		if got := sc.Compare(ob, oa); cmp.Compare(got, 0) != -want {
			t.Fatalf("Compare is not antisymmetric: Compare(%v, %v) = %d, want sign %d", ob, oa, got, -want)
		}
	})
}
