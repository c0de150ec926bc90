// Package money provides exact fixed-point currency arithmetic for cloud
// billing computations.
//
// Cloud tariffs mix very small unit prices (e.g. $0.0000004 per request)
// with large monthly bills; binary floating point accumulates drift that is
// unacceptable when reproducing a provider's invoice to the cent. All
// amounts are therefore stored as signed 64-bit integers in micro-dollars
// (1e-6 USD), which represents every price appearing in the paper's tariff
// tables exactly and supports bills up to ±9.2 trillion dollars.
package money

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Money is a monetary amount in micro-dollars (1e-6 USD).
// The zero value is $0.
type Money int64

// Cent is one US cent.
const Cent Money = 10_000

// MaxMoney and MinMoney bound the representable range.
const (
	MaxMoney Money = math.MaxInt64
	MinMoney Money = math.MinInt64
)

// ErrOverflow is returned (or carried by panics in checked helpers) when an
// arithmetic operation exceeds the representable range.
var ErrOverflow = errors.New("money: arithmetic overflow")

// FromDollars converts a float dollar amount to Money, rounding half away
// from zero to the nearest micro-dollar.
func FromDollars(d float64) Money {
	return Money(math.Round(d * 1e6))
}

// Micros returns the raw micro-dollar count.
func (m Money) Micros() int64 { return int64(m) }

// Dollars returns the amount as a float64 number of dollars.
// Intended for display and plotting only; never feed the result back into
// billing arithmetic.
func (m Money) Dollars() float64 { return float64(m) / 1e6 }

// IsNegative reports whether the amount is below $0.
func (m Money) IsNegative() bool { return m < 0 }

// Neg returns -m, saturating: -MinMoney is MaxMoney.
func (m Money) Neg() Money {
	if m == MinMoney {
		return MaxMoney
	}
	return -m
}

// Add returns m + o, saturating at the range bounds on overflow.
func (m Money) Add(o Money) Money {
	s := m + o
	// Overflow iff the operands share a sign and the sum's sign differs
	// from both.
	if (m^s)&(o^s) < 0 {
		if m < 0 {
			return MinMoney
		}
		return MaxMoney
	}
	return s
}

// Sub returns m - o, saturating on overflow. It is not Add(-o): -o
// wraps at MinMoney.
func (m Money) Sub(o Money) Money {
	s := m - o
	// Overflow iff the operands differ in sign and the difference's sign
	// differs from m's.
	if (m^o)&(m^s) < 0 {
		if m < 0 {
			return MinMoney
		}
		return MaxMoney
	}
	return s
}

// MulInt returns m * n, saturating on overflow. The product is taken
// on the magnitudes in 128 bits, so the one case a division check would
// miss — MinMoney × −1, whose two's-complement product wraps back to
// MinMoney — saturates like every other overflow.
func (m Money) MulInt(n int64) Money {
	neg := (m < 0) != (n < 0)
	a, b := uint64(m), uint64(n)
	if m < 0 {
		a = -a
	}
	if n < 0 {
		b = -b
	}
	hi, lo := bits.Mul64(a, b)
	limit := uint64(math.MaxInt64)
	if neg {
		limit++ // |MinMoney|
	}
	if hi != 0 || lo > limit {
		if neg {
			return MinMoney
		}
		return MaxMoney
	}
	if neg {
		lo = -lo
	}
	return Money(lo)
}

// MulFloat returns m * f rounded half away from zero to the nearest
// micro-dollar. Use for fractional quantities such as GB-months.
//
// Below 2⁵² in magnitude the product's fractional part, x − trunc(x), is
// exact, so rounding is a truncation and one compare of that part with
// ½ — math.Round's answer without its bit manipulation. Larger products
// (already integers), ±Inf and NaN take math.Round and the range clamps.
func (m Money) MulFloat(f float64) Money {
	// The conversion rounds the product before the subtraction below, so
	// no port fuses the two into one multiply-subtract (scripts/nofma.sh).
	x := float64(float64(m) * f)
	if math.Abs(x) < 1<<52 {
		i := int64(x)
		switch frac := x - float64(i); {
		case frac >= 0.5:
			i++
		case frac <= -0.5:
			i--
		}
		return Money(i)
	}
	r := math.Round(x)
	if r >= math.MaxInt64 {
		return MaxMoney
	}
	if r <= math.MinInt64 {
		return MinMoney
	}
	return Money(r)
}

// DivInt returns m / n rounded half away from zero, saturating: the one
// quotient out of range, MinMoney / −1, is MaxMoney.
// It panics if n == 0.
func (m Money) DivInt(n int64) Money {
	if n == 0 {
		panic("money: division by zero")
	}
	if m == MinMoney && n == -1 {
		return MaxMoney
	}
	q := int64(m) / n
	rem := int64(m) % n
	// Round half away from zero: |rem| ≥ |n| − |rem|, on magnitudes in
	// uint64, where neither |MinInt64| nor 2·|rem| overflows.
	if r, d := abs64(rem), abs64(n); r >= d-r {
		if (m > 0) == (n > 0) {
			q++
		} else {
			q--
		}
	}
	return Money(q)
}

// abs64 returns |v| as a uint64, exact for every int64.
func abs64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// Max returns the larger of a and b.
func Max(a, b Money) Money {
	if a > b {
		return a
	}
	return b
}

// Sum adds a sequence of amounts, saturating on overflow.
func Sum(ms ...Money) Money {
	var total Money
	for _, m := range ms {
		total = total.Add(m)
	}
	return total
}

// String renders the amount as dollars, e.g. "$0.12", "-$2131.76".
// At least two decimals are shown; trailing sub-cent digits are trimmed.
func (m Money) String() string {
	var b [24]byte // "-$9223372036854.775808" is 22 bytes
	return string(m.AppendString(b[:0]))
}

// AppendString appends the String form to dst.
//
//mvlint:hotpath
func (m Money) AppendString(dst []byte) []byte {
	// The magnitude is taken in uint64: -MinMoney does not fit an int64.
	u := uint64(m)
	if m < 0 {
		dst = append(dst, '-')
		u = -u
	}
	dst = append(dst, '$')
	dst = strconv.AppendUint(dst, u/1e6, 10)
	// The six fractional digits, two at a time from a table.
	frac := uint32(u % 1e6)
	hi, mid, lo := 2*(frac/10000), 2*(frac/100%100), 2*(frac%100)
	dst = append(dst, '.',
		digitPairs[hi], digitPairs[hi+1],
		digitPairs[mid], digitPairs[mid+1],
		digitPairs[lo], digitPairs[lo+1])
	// Trim trailing zeros but keep at least two decimals.
	n := len(dst)
	for n > len(dst)-4 && dst[n-1] == '0' {
		n--
	}
	return dst[:n]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// Parse parses strings like "$1.08", "1.08", "-$0.0000004" into Money.
// At most six fractional digits are accepted.
func Parse(s string) (Money, error) {
	orig := s
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	s = strings.TrimPrefix(s, "$")
	if strings.HasPrefix(s, "-") { // "$-1.08"
		neg = !neg
		s = s[1:]
	}
	if s == "" {
		return 0, fmt.Errorf("money: cannot parse %q", orig)
	}
	wholeStr, fracStr, hasFrac := strings.Cut(s, ".")
	if wholeStr == "" {
		wholeStr = "0"
	}
	whole, err := strconv.ParseInt(wholeStr, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("money: cannot parse %q: %v", orig, err)
	}
	var frac int64
	if hasFrac {
		if len(fracStr) > 6 {
			return 0, fmt.Errorf("money: %q has more than 6 fractional digits", orig)
		}
		padded := fracStr + strings.Repeat("0", 6-len(fracStr))
		frac, err = strconv.ParseInt(padded, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("money: cannot parse %q: %v", orig, err)
		}
	}
	if whole < 0 || frac < 0 { // a second sign inside the number
		return 0, fmt.Errorf("money: cannot parse %q", orig)
	}
	if whole > math.MaxInt64/1_000_000 {
		return 0, ErrOverflow
	}
	// Like AppendString, work on the magnitude in uint64, so that the
	// whole range parses — MinMoney has no positive counterpart.
	mag := uint64(whole)*1_000_000 + uint64(frac)
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if mag > limit {
		return 0, ErrOverflow
	}
	if neg {
		mag = -mag
	}
	return Money(mag), nil
}

// MustParse is like Parse but panics on error. Intended for static tariff
// tables in fixtures and tests.
func MustParse(s string) Money {
	m, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return m
}
