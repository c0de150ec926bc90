package wiretest

import (
	"math"
	"math/rand"
	"strings"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
)

// pieces are the fragments String draws from: what real names hold
// (ASCII, ×, α, —) beside everything the string escaper treats
// specially — quotes, backslashes, HTML characters, control bytes,
// U+2028/2029, invalid and truncated UTF-8, a four-byte rune.
var pieces = []string{
	"year", "country", "aws-2012", "small", " ", "×", "α=0.5", " — ", "≈",
	`"`, `\`, "<", ">", "&", "\n", "\t", "\r", "\b", "\f", "\x00", "\x1f", "\x7f",
	"\u2028", "\u2029", "\xff", "\xc3", "\xe2\x82", "\xed\xa0\x80", "😀",
}

// String returns a short string of random pieces; about one in six is
// empty.
func String(rng *rand.Rand) string {
	if rng.Intn(6) == 0 {
		return ""
	}
	var sb strings.Builder
	for n := 1 + rng.Intn(4); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// Float returns a finite float64 from every regime of the wire float
// format: zeros, ordinary ratios, values either side of the 1e-6 and
// 1e21 exponent switches, and the extremes.
func Float(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 1e-7, 9.999e-7, 1e21, 9.99e20, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1 + 0.2}[rng.Intn(8)]
	case 3:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		return rng.Float64()*2 - 1
	}
}

// Money returns an amount from cents to the ends of the range.
func Money(rng *rand.Rand) money.Money {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return []money.Money{money.MaxMoney, money.MinMoney, money.Microdollar, -money.Cent}[rng.Intn(4)]
	default:
		return money.Money(rng.Int63n(500_000_000) - 1_000_000)
	}
}

func bill(rng *rand.Rand) costmodel.Bill {
	return costmodel.Bill{
		Compute:  costmodel.Breakdown{Processing: Money(rng), Maintenance: Money(rng), Materialization: Money(rng)},
		Storage:  Money(rng),
		Transfer: Money(rng),
	}
}

func duration(rng *rand.Rand) time.Duration {
	if rng.Intn(8) == 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(400 * time.Hour)))
}

// Recommendation returns a random solved scenario — not one any solver
// would produce, but every shape the encoder has to get right:
// infeasible and degraded selections, nil and empty selections, nil
// points inside a selection, a zero baseline, hostile names.
func Recommendation(rng *rand.Rand) core.Recommendation {
	r := core.Recommendation{
		Scenario: String(rng),
		Selection: optimizer.Selection{
			Time:     duration(rng),
			Bill:     bill(rng),
			Feasible: rng.Intn(3) > 0,
			Strategy: String(rng),
			Degraded: rng.Intn(4) == 0,
		},
		BaselineTime: duration(rng),
		BaselineBill: bill(rng),
	}
	switch n := rng.Intn(6); n {
	case 0: // nil selection
	case 1:
		r.Selection.Points, r.ViewNames = []lattice.Point{}, []string{}
	default:
		for ; n > 1; n-- {
			p := lattice.Point{rng.Intn(4), rng.Intn(4)}
			if rng.Intn(10) == 0 {
				p = nil
			}
			r.Selection.Points = append(r.Selection.Points, p)
			r.ViewNames = append(r.ViewNames, String(rng))
		}
	}
	return r
}

// Pareto returns a random frontier; nil about one time in four.
func Pareto(rng *rand.Rand) []core.ParetoPoint {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	front := make([]core.ParetoPoint, n)
	for i := range front {
		front[i] = core.ParetoPoint{
			Alpha:    Float(rng),
			Time:     duration(rng),
			Cost:     Money(rng),
			Views:    rng.Intn(16),
			Degraded: rng.Intn(4) == 0,
		}
	}
	return front
}
