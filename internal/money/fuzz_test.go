package money

import (
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
