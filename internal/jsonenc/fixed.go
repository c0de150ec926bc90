package jsonenc

import (
	"math"
	"strconv"
)

var pow10 = [...]uint64{1, 10, 100, 1000}

// AppendFixed appends f with prec digits after the point: the bytes of
// strconv.AppendFloat(dst, f, 'f', prec, 64), which has no fast path
// for 'f' with an explicit precision and runs its multiprecision
// decimal on every call.
//
// A float64 is m·2^e with m an integer below 2^53, and strconv rounds
// the exact decimal expansion of that value, half to even. For e < 0
// and prec ≤ 3 the same rounding is integer arithmetic: m·10^prec is
// below 2^63, the quotient by 2^-e is the value in units of 10^-prec,
// and the remainder against half of 2^-e decides the rounding exactly —
// nothing is approximated, so the digits agree for every such float,
// subnormals, exact halves and negative zero included. Anything else
// (prec outside 0–3, |f| ≥ 2^53, NaN, the infinities) is strconv's.
//
//mvlint:hotpath
func AppendFixed(dst []byte, f float64, prec int) []byte {
	bits := math.Float64bits(f)
	exp := int(bits>>52) & 0x7ff
	if uint(prec) >= uint(len(pow10)) || exp >= 1075 {
		return strconv.AppendFloat(dst, f, 'f', prec, 64)
	}
	m := bits & (1<<52 - 1)
	k := uint(1075 - exp) // f = ±m / 2^k
	if exp == 0 {
		k = 1074 // subnormal: no implicit bit
	} else {
		m |= 1 << 52
	}
	scale := pow10[prec]
	m *= scale
	var q uint64
	// From k = 64 up, m < 2^63 is under half of 2^k: q stays 0.
	if k < 64 {
		q = m >> k
		rem, half := m&(1<<k-1), uint64(1)<<(k-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/scale, 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := q % scale
	for scale /= 10; scale > 0; scale /= 10 {
		dst = append(dst, byte('0'+frac/scale%10))
	}
	return dst
}
