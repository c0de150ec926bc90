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

// clampBig converts an arbitrary-precision result to Money, clamped to
// the range.
func clampBig(v *big.Int) Money {
	switch {
	case v.Cmp(big.NewInt(math.MaxInt64)) > 0:
		return MaxMoney
	case v.Cmp(big.NewInt(math.MinInt64)) < 0:
		return MinMoney
	}
	return Money(v.Int64())
}

// divIntReference is m / n rounded half away from zero in arbitrary
// precision, clamped to the range.
func divIntReference(m Money, n int64) Money {
	bn := big.NewInt(n)
	q, r := new(big.Int).QuoRem(big.NewInt(int64(m)), bn, new(big.Int))
	twice := new(big.Int).Lsh(new(big.Int).Abs(r), 1)
	if r.Sign() != 0 && twice.Cmp(new(big.Int).Abs(bn)) >= 0 {
		q.Add(q, big.NewInt(int64(r.Sign()*bn.Sign())))
	}
	return clampBig(q)
}

// FuzzMoneyArith holds Add, Sub, Neg and DivInt to their definitions:
// the exact sum, difference, negation and half-away-from-zero quotient in
// math/big, clamped to the range.
func FuzzMoneyArith(f *testing.F) {
	f.Add(int64(0), int64(math.MinInt64))
	f.Add(int64(-1), int64(math.MinInt64))
	f.Add(int64(math.MinInt64), int64(-1))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(int64(math.MaxInt64), int64(1))
	f.Add(int64(1<<62), int64(math.MinInt64))
	f.Add(int64(-3), int64(2))
	f.Add(int64(7), int64(0))
	f.Fuzz(func(t *testing.T, m, o int64) {
		bm, bo := big.NewInt(m), big.NewInt(o)
		if got, want := Money(m).Add(Money(o)), clampBig(new(big.Int).Add(bm, bo)); got != want {
			t.Fatalf("Money(%d).Add(%d) = %d, want %d", m, o, got, want)
		}
		if got, want := Money(m).Sub(Money(o)), clampBig(new(big.Int).Sub(bm, bo)); got != want {
			t.Fatalf("Money(%d).Sub(%d) = %d, want %d", m, o, got, want)
		}
		if got, want := Money(m).Neg(), clampBig(new(big.Int).Neg(bm)); got != want {
			t.Fatalf("Money(%d).Neg() = %d, want %d", m, got, want)
		}
		if o != 0 {
			if got, want := Money(m).DivInt(o), divIntReference(Money(m), o); got != want {
				t.Fatalf("Money(%d).DivInt(%d) = %d, want %d", m, o, got, want)
			}
		}
	})
}
