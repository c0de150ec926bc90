package units

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBinaryMultiples(t *testing.T) {
	// The paper's Example 3 equates 0.5 TB with 512 GB and 2 TB with 2048 GB.
	if TB/GB != 1024 {
		t.Fatalf("TB/GB = %d, want 1024", TB/GB)
	}
	if got := (TB / 2).GBs(); got != 512 {
		t.Errorf("0.5TB = %v GB, want 512", got)
	}
	if got := (2 * TB).GBs(); got != 2048 {
		t.Errorf("2TB = %v GB, want 2048", got)
	}
}

func TestFromGBRoundTrip(t *testing.T) {
	f := func(n int16) bool {
		gb := float64(abs16(n))
		return FromGB(gb).GBs() == gb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs16(n int16) int16 {
	if n < 0 {
		if n == -32768 {
			return 32767
		}
		return -n
	}
	return n
}

func TestString(t *testing.T) {
	cases := []struct {
		in   DataSize
		want string
	}{
		{500 * GB, "500.00 GB"},
		{10 * GB, "10.00 GB"},
		{TB + 512*GB, "1.50 TB"},
		{42 * Byte, "42 B"},
		{3 * MB, "3.00 MB"},
		{-2 * GB, "-2.00 GB"},
		{5 * KB, "5.00 KB"},
		{2 * PB, "2.00 PB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestStringUnitBoundaries: the unit is chosen after the value is
// rounded, so a size just under a unit reads 1.00 of it rather than
// 1024.00 of the one below — at every boundary, one byte either side,
// both signs.
func TestStringUnitBoundaries(t *testing.T) {
	cases := []struct {
		in   DataSize
		want string
	}{
		{KB - 1, "1023 B"}, {KB, "1.00 KB"}, {KB + 1, "1.00 KB"},
		{MB - 1, "1.00 MB"}, {MB, "1.00 MB"}, {MB + 1, "1.00 MB"},
		{GB - 1, "1.00 GB"}, {GB, "1.00 GB"}, {GB + 1, "1.00 GB"},
		{TB - 1, "1.00 TB"}, {TB, "1.00 TB"}, {TB + 1, "1.00 TB"},
		{PB - 1, "1.00 PB"}, {PB, "1.00 PB"}, {PB + 1, "1.00 PB"},
		{GB - 1000, "1.00 GB"},
		// The last size that stays and the first that is promoted.
		{MB - 6, "1023.99 KB"}, {MB - 5, "1.00 MB"},
		{GB - 5243, "1023.99 MB"}, {GB - 5242, "1.00 GB"},
		{1024*PB - 1, "1024.00 PB"}, // no unit above PB
		{DataSize(math.MaxInt64), "8192.00 PB"},
		{DataSize(math.MinInt64), "-8192.00 PB"},
		// Exact halves round to even, as %.2f does.
		{1152, "1.12 KB"}, {1408, "1.38 KB"}, {1536, "1.50 KB"},
		{KB + 5, "1.00 KB"}, {KB + 6, "1.01 KB"},
	}
	for _, c := range cases {
		for _, sign := range []DataSize{1, -1} {
			in, want := c.in, c.want
			if sign < 0 && in > 0 {
				in, want = -in, "-"+want
			}
			if got := in.String(); got != want {
				t.Errorf("DataSize(%d).String() = %q, want %q", int64(in), got, want)
			}
		}
	}
}

// TestStringMatchesFloatFormat: where the old formatter was right — the
// quotient exact in a float64 and not within rounding of the next unit —
// the integer one prints the same bytes.
func TestStringMatchesFloatFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200_000; i++ {
		v := rng.Int63n(1 << uint(11+rng.Intn(42))) // up to 2^53
		if v < int64(KB) {
			continue
		}
		unit, suffix := KB, " KB"
		for _, u := range []struct {
			u DataSize
			s string
		}{{PB, " PB"}, {TB, " TB"}, {GB, " GB"}, {MB, " MB"}} {
			if v >= int64(u.u) {
				unit, suffix = u.u, u.s
				break
			}
		}
		want := strconv.FormatFloat(float64(v)/float64(unit), 'f', 2, 64) + suffix
		if strings.HasPrefix(want, "1024.00") && unit != PB {
			continue
		}
		if got := DataSize(v).String(); got != want {
			t.Fatalf("DataSize(%d).String() = %q, want %q", v, got, want)
		}
	}
}

func TestParseDataSize(t *testing.T) {
	cases := []struct {
		in      string
		want    DataSize
		wantErr bool
	}{
		{"500GB", 500 * GB, false},
		{"500 gb", 500 * GB, false},
		{"1.5 TB", TB + 512*GB, false},
		{"42", 42, false},
		{"42B", 42, false},
		{"10mb", 10 * MB, false},
		{"", 0, true},
		{"GB", 0, true},
		{"x GB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseDataSize(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseDataSize(%q) expected error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDataSize(%q) error: %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDataSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	// String renders two decimals in the next-larger unit, so the round trip
	// is exact only below the unit boundary (e.g. whole GB under 1 TB).
	f := func(n uint16) bool {
		s := DataSize(n%1024) * GB
		got, err := ParseDataSize(s.String())
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBillableHoursPerHour(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want float64
	}{
		{0, 0},
		{-time.Hour, 0},
		{time.Hour, 1},
		{50 * time.Hour, 50},             // Example 2: RoundUp(50) = 50
		{49*time.Hour + time.Minute, 50}, // started hour charged in full
		{time.Nanosecond, 1},
		{12 * time.Minute, 1}, // 0.2 h query → one full billed hour
	}
	for _, c := range cases {
		if got := BillPerHour.BillableHours(c.d); got != c.want {
			t.Errorf("BillPerHour.BillableHours(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestBillableHoursFinerGranularities(t *testing.T) {
	d := 90 * time.Minute
	if got := BillPerMinute.BillableHours(d); got != 1.5 {
		t.Errorf("per-minute 90m = %v, want 1.5", got)
	}
	if got := BillPerSecond.BillableHours(30 * time.Second); got != 30.0/3600 {
		t.Errorf("per-second 30s = %v", got)
	}
	if got := BillExact.BillableHours(45 * time.Minute); got != 0.75 {
		t.Errorf("exact 45m = %v, want 0.75", got)
	}
	// Rounding up at sub-units: 61s billed per minute = 2 minutes.
	if got := BillPerMinute.BillableHours(61 * time.Second); got != 2.0/60 {
		t.Errorf("per-minute 61s = %v, want 2/60", got)
	}
}

// Property: billable hours never undershoot the true duration, and coarser
// granularities never charge less than finer ones. Comparisons allow one
// ULP of float slack: for whole-second durations, d.Hours() and
// ceil(seconds)/3600 can land on adjacent float64 values.
func TestBillableHoursMonotone(t *testing.T) {
	leq := func(a, b float64) bool {
		return a <= b || a-b <= 1e-9*(1+b)
	}
	f := func(secs uint32) bool {
		d := time.Duration(secs%1_000_000) * time.Second
		exact := BillExact.BillableHours(d)
		perSec := BillPerSecond.BillableHours(d)
		perMin := BillPerMinute.BillableHours(d)
		perHour := BillPerHour.BillableHours(d)
		return leq(exact, perSec) && leq(perSec, perMin) && leq(perMin, perHour)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGranularityString(t *testing.T) {
	for g, want := range map[BillingGranularity]string{
		BillPerHour:   "per-hour",
		BillPerMinute: "per-minute",
		BillPerSecond: "per-second",
		BillExact:     "exact",
	} {
		if g.String() != want {
			t.Errorf("%d.String() = %q, want %q", g, g.String(), want)
		}
	}
	if BillingGranularity(99).String() == "" {
		t.Error("unknown granularity should still render")
	}
}

func TestHoursToDuration(t *testing.T) {
	if HoursToDuration(0.2) != 12*time.Minute {
		t.Errorf("0.2h = %v, want 12m", HoursToDuration(0.2))
	}
	if HoursToDuration(1.5) != 90*time.Minute {
		t.Errorf("1.5h = %v, want 90m", HoursToDuration(1.5))
	}
}

func TestDataSizeArithmetic(t *testing.T) {
	if (50 * GB).MulInt(2) != 100*GB {
		t.Error("MulInt wrong")
	}
	if (100 * GB).MulFloat(0.5) != 50*GB {
		t.Error("MulFloat wrong")
	}
}
