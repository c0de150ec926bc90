package jsonenc

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func checkFixed(t *testing.T, f float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x"), f, 'f', prec, 64)
	if got := AppendFixed([]byte("x"), f, prec); string(got) != string(want) {
		t.Fatalf("AppendFixed(%v [%#x], %d) = %s, want %s", f, math.Float64bits(f), prec, got, want)
	}
}

// fixedEdges are the values where integer rounding and strconv's
// decimal could part ways: exact halves either side of even, the
// neighbours of halves, the ends of the fast range (2^53, the smallest
// subnormal), both zeros, and what falls through to strconv.
var fixedEdges = []float64{
	0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -2.5, 0.25, 0.125, 0.0625, 0.375, 0.0005, 0.0015, 0.005, 0.05,
	99.9995, 999.9995, 0.9995, 0.995, 0.95, 9.5, 99.5, 1.0005, 1.005, 2.675, 1e-3, 1e-4, 4.9e-4, 5.1e-4,
	math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(2.5, 0), math.Nextafter(2.5, 3),
	math.Nextafter(0.0005, 0), math.Nextafter(0.0005, 1),
	5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
	1 << 52, 1<<52 + 1, 1<<52 - 1, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53),
	1<<51 + 0.25, 1<<51 - 0.25, 4503599627370495.5, 2251799813685247.75,
	12.345, 3.4291666666666667, 100, 1e15, 1e16, 1e22, 1e300, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestAppendFixed: AppendFixed is strconv's 'f' format byte for byte —
// on the edges, on uniformly random bit patterns (every exponent, so
// mostly far outside a report's range), and on the magnitudes reports
// print, for every precision including those it hands to strconv.
func TestAppendFixed(t *testing.T) {
	precs := []int{0, 1, 2, 3, 4, 17, -1}
	for _, f := range fixedEdges {
		for _, prec := range precs {
			checkFixed(t, f, prec)
		}
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 50_000; i++ {
		checkFixed(t, math.Float64frombits(rng.Uint64()), i%4)
		checkFixed(t, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(12)-4)), i%4)
		// Short decimals: the nearest floats to the ties a %.3f of hours
		// or a %.1f of a percentage actually meets.
		checkFixed(t, float64(rng.Intn(2_000_000)-1_000_000)/math.Pow(10, float64(1+rng.Intn(4))), i%4)
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedEdges {
		f.Add(math.Float64bits(v), uint8(3))
	}
	f.Fuzz(func(t *testing.T, bits uint64, prec uint8) {
		checkFixed(t, math.Float64frombits(bits), int(prec%4))
	})
}

func BenchmarkAppendFixed(b *testing.B) {
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFixed(buf[:0], 3.4291666666666667, 3)
	}
}
