package money

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// FuzzParse checks that Parse never panics, and that anything it accepts
// round-trips through String within micro-dollar resolution.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"$1.08", "-$2131.76", "0.12", "$", "", "abc", "$1.2.3",
		"$0.000001", "9223372036854", "-", "$-0.5", "  $2.40 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(m.String())
		if err != nil {
			t.Fatalf("Parse(%q)=%v but its rendering %q does not re-parse: %v", s, m, m.String(), err)
		}
		if back != m {
			t.Fatalf("round trip %q → %v → %q → %v", s, m, m.String(), back)
		}
	})
}

// FuzzDataFlow ensures arithmetic on parsed values stays saturating, never
// panicking, for arbitrary inputs.
func FuzzDataFlow(f *testing.F) {
	f.Add("$5.00", "$3.00", int64(7))
	f.Add("-$5.00", "$0.01", int64(-2))
	f.Fuzz(func(t *testing.T, a, b string, n int64) {
		ma, errA := Parse(a)
		mb, errB := Parse(b)
		if errA != nil || errB != nil {
			return
		}
		_ = ma.Add(mb)
		_ = ma.Sub(mb)
		_ = ma.MulInt(n)
		if n != 0 {
			_ = ma.DivInt(n)
		}
		if strings.HasPrefix(ma.String(), "-") != ma.IsNegative() {
			t.Fatal("String sign disagrees with IsNegative")
		}
	})
}

// mulFloatReference is MulFloat as first written: math.Round of the
// product, clamped to the range. The truncate-and-compare rounding must
// agree with it on every input, NaN and ±0 included.
func mulFloatReference(m Money, f float64) Money {
	r := math.Round(float64(float64(m) * f))
	if r >= math.MaxInt64 {
		return MaxMoney
	}
	if r <= math.MinInt64 {
		return MinMoney
	}
	return Money(r)
}

// mulIntReference is m × n in arbitrary precision, clamped to the range.
func mulIntReference(m Money, n int64) Money {
	p := new(big.Int).Mul(big.NewInt(int64(m)), big.NewInt(n))
	switch {
	case p.Cmp(big.NewInt(math.MaxInt64)) > 0:
		return MaxMoney
	case p.Cmp(big.NewInt(math.MinInt64)) < 0:
		return MinMoney
	}
	return Money(p.Int64())
}

// FuzzMoneyMul holds the two multiplications to their definitions:
// MulFloat to the math.Round form, MulInt to a clamped math/big product.
func FuzzMoneyMul(f *testing.F) {
	f.Add(int64(MinMoney), int64(-1), 1.0)
	f.Add(int64(-1), int64(math.MinInt64), 1.0)
	f.Add(int64(1), int64(3), 0.5)
	f.Add(int64(1), int64(-3), -2.5)
	f.Add(int64(1), int64(7), 0.49999999999999994)
	f.Add(int64(1), int64(2), 1<<52-0.5)
	f.Add(int64(-1), int64(2), 1<<52+1.0)
	f.Add(int64(3), int64(0), math.NaN())
	f.Add(int64(3), int64(1), math.Inf(1))
	f.Add(int64(-3), int64(1), math.Inf(-1))
	f.Add(int64(5), int64(1), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, m, n int64, x float64) {
		if got, want := Money(m).MulFloat(x), mulFloatReference(Money(m), x); got != want {
			t.Fatalf("Money(%d).MulFloat(%v) = %d, want %d", m, x, got, want)
		}
		if got, want := Money(m).MulInt(n), mulIntReference(Money(m), n); got != want {
			t.Fatalf("Money(%d).MulInt(%d) = %d, want %d", m, n, got, want)
		}
	})
}
