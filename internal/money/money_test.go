package money

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
)

// The round amounts the tests spell.
const (
	Microdollar Money = 1
	Dollar      Money = 1_000_000
)

func TestFromDollars(t *testing.T) {
	cases := []struct {
		in   float64
		want Money
	}{
		{0, 0},
		{0.12, 120_000},
		{1.08, 1_080_000},
		{-2.5, -2_500_000},
		{0.0000004, 0}, // below micro-dollar resolution rounds to zero
		{0.0000005, 1}, // rounds half away from zero
		{2131.76, 2_131_760_000},
	}
	for _, c := range cases {
		if got := FromDollars(c.in); got != c.want {
			t.Errorf("FromDollars(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		in   Money
		want string
	}{
		{0, "$0.00"},
		{Dollar, "$1.00"},
		{12 * Cent, "$0.12"},
		{FromDollars(1.08), "$1.08"},
		{FromDollars(-2131.76), "-$2131.76"},
		{FromDollars(0.000001), "$0.000001"},
		{FromDollars(9.6), "$9.60"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		want    Money
		wantErr bool
	}{
		{"$1.08", FromDollars(1.08), false},
		{"1.08", FromDollars(1.08), false},
		{"-$0.12", FromDollars(-0.12), false},
		{"$-0.12", FromDollars(-0.12), false},
		{"$.5", FromDollars(0.5), false},
		{"  $2.40 ", FromDollars(2.4), false},
		{"$0.0000004", 0, true}, // 7 fractional digits
		{"", 0, true},
		{"$", 0, true},
		{"abc", 0, true},
		{"$1.2.3", 0, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("Parse(%q) expected error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q) unexpected error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(u int32) bool {
		m := Money(u) * 10 // arbitrary amounts, micro precision
		got, err := Parse(m.String())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSaturates(t *testing.T) {
	if got := MaxMoney.Add(Dollar); got != MaxMoney {
		t.Errorf("MaxMoney+$1 = %d, want saturation at MaxMoney", got)
	}
	if got := MinMoney.Add(-Dollar); got != MinMoney {
		t.Errorf("MinMoney-$1 = %d, want saturation at MinMoney", got)
	}
	if got := Dollar.Add(2 * Dollar); got != 3*Dollar {
		t.Errorf("$1+$2 = %v, want $3", got)
	}
}

func TestMulIntSaturates(t *testing.T) {
	if got := MaxMoney.MulInt(2); got != MaxMoney {
		t.Errorf("MaxMoney*2 = %d, want MaxMoney", got)
	}
	if got := MaxMoney.MulInt(-2); got != MinMoney {
		t.Errorf("MaxMoney*-2 = %d, want MinMoney", got)
	}
	if got := FromDollars(0.12).MulInt(50); got != FromDollars(6) {
		t.Errorf("$0.12*50 = %v, want $6", got)
	}
}

func TestMulFloat(t *testing.T) {
	// Storage example from the paper: $0.14/GB * 550 GB = $77.
	if got := FromDollars(0.14).MulFloat(550); got != FromDollars(77) {
		t.Errorf("$0.14*550 = %v, want $77", got)
	}
	// Rounds half away from zero at micro-dollar resolution.
	if got := Money(1).MulFloat(0.5); got != 1 {
		t.Errorf("1u*0.5 = %d, want 1", got)
	}
	if got := Money(-1).MulFloat(0.5); got != -1 {
		t.Errorf("-1u*0.5 = %d, want -1", got)
	}
	if got := MaxMoney.MulFloat(2); got != MaxMoney {
		t.Errorf("MaxMoney*2.0 = %d, want MaxMoney", got)
	}
}

func TestDivInt(t *testing.T) {
	cases := []struct {
		m    Money
		n    int64
		want Money
	}{
		{FromDollars(10), 2, FromDollars(5)},
		{Money(3), 2, Money(2)},   // 1.5 micros rounds away from zero
		{Money(-3), 2, Money(-2)}, // symmetric
		{Money(1), 3, Money(0)},
	}
	for _, c := range cases {
		if got := c.m.DivInt(c.n); got != c.want {
			t.Errorf("(%d).DivInt(%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestDivIntPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DivInt(0) did not panic")
		}
	}()
	Dollar.DivInt(0)
}

func TestMax(t *testing.T) {
	if Max(Dollar, Cent) != Dollar || Max(Cent, Dollar) != Dollar {
		t.Error("Max wrong")
	}
}

func TestSum(t *testing.T) {
	if got := Sum(FromDollars(50), FromDollars(12)); got != FromDollars(62) {
		t.Errorf("Sum = %v, want $62", got)
	}
	if got := Sum(); got != 0 {
		t.Errorf("Sum() = %v, want $0", got)
	}
}

// Property: Add is commutative and associative away from saturation bounds.
func TestAddProperties(t *testing.T) {
	comm := func(a, b int32) bool {
		x, y := Money(a), Money(b)
		return x.Add(y) == y.Add(x)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	assoc := func(a, b, c int32) bool {
		x, y, z := Money(a), Money(b), Money(c)
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
}

// Property: Sub is the inverse of Add away from bounds.
func TestSubInverse(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Money(a), Money(b)
		return x.Add(y).Sub(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MulInt distributes over Add away from bounds.
func TestMulIntDistributes(t *testing.T) {
	f := func(a, b int16, n int16) bool {
		x, y, k := Money(a), Money(b), int64(n)
		return x.Add(y).MulInt(k) == x.MulInt(k).Add(y.MulInt(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeg(t *testing.T) {
	if FromDollars(3).Neg() != FromDollars(-3) {
		t.Error("Neg(3) != -3")
	}
	if !Money(-1).IsNegative() || Money(1).IsNegative() {
		t.Error("IsNegative wrong")
	}
}

func TestDollarsRoundTripSmall(t *testing.T) {
	// Float round-trip is exact for amounts under ~$9e9 at micro resolution.
	f := func(c int32) bool {
		m := Money(c) * Cent
		return FromDollars(m.Dollars()) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverflowBoundaries(t *testing.T) {
	if MaxMoney.Dollars() <= 0 || math.IsInf(MaxMoney.Dollars(), 0) {
		t.Error("MaxMoney.Dollars() not finite positive")
	}
	if got := Money(math.MaxInt64).Add(Money(math.MaxInt64)); got != MaxMoney {
		t.Error("double max should saturate")
	}
}

// TestStringEdges pins the display form at the ends of the range — the
// magnitude of MinMoney does not fit an int64 — and round-trips every
// case through Parse and through JSON.
func TestStringEdges(t *testing.T) {
	cases := []struct {
		m    Money
		want string
	}{
		{0, "$0.00"},
		{Microdollar, "$0.000001"},
		{-Microdollar, "-$0.000001"},
		{10 * Cent, "$0.10"},
		{-10 * Cent, "-$0.10"},
		{MaxMoney, "$9223372036854.775807"},
		{MinMoney, "-$9223372036854.775808"},
		{MinMoney + 1, "-$9223372036854.775807"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("Money(%d).String() = %q, want %q", int64(c.m), got, c.want)
		}
		if got := string(c.m.AppendString([]byte("x"))); got != "x"+c.want {
			t.Errorf("Money(%d).AppendString = %q, want %q", int64(c.m), got, "x"+c.want)
		}
		if back, err := Parse(c.want); err != nil || back != c.m {
			t.Errorf("Parse(%q) = %d, %v; want %d", c.want, int64(back), err, int64(c.m))
		}
		b, err := json.Marshal(c.m)
		if err != nil || string(b) != `"`+c.want+`"` {
			t.Errorf("json.Marshal(Money(%d)) = %s, %v", int64(c.m), b, err)
		}
		var back Money
		if err := json.Unmarshal(b, &back); err != nil || back != c.m {
			t.Errorf("json.Unmarshal(%s) = %d, %v; want %d", b, int64(back), err, int64(c.m))
		}
	}
	for _, s := range []string{"$9223372036854.775808", "-$9223372036854.775809", "$9223372036855", "$--5", "$1.-5"} {
		if m, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %d, want an error", s, int64(m))
		}
	}
}

// TestStringEveryFraction holds the table-driven fractional digits to
// one digit at a time, for every one of the million fractions.
func TestStringEveryFraction(t *testing.T) {
	var buf []byte
	for frac := 0; frac < 1_000_000; frac++ {
		want := []byte("$12.000000")
		for i, f := len(want)-1, frac; f > 0; i, f = i-1, f/10 {
			want[i] = byte('0' + f%10)
		}
		for len(want) > len("$12.00") && want[len(want)-1] == '0' {
			want = want[:len(want)-1]
		}
		buf = Money(12_000_000 + frac).AppendString(buf[:0])
		if string(buf) != string(want) {
			t.Fatalf("Money(%d) = %q, want %q", 12_000_000+frac, buf, want)
		}
	}
}

func BenchmarkMoneyAppendString(b *testing.B) {
	buf := make([]byte, 0, 32)
	m := MustParse("$2131.76")
	b.SetBytes(int64(len(m.String())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendString(buf[:0])
	}
}
