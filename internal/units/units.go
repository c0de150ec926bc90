// Package units provides the measurement types shared by the cost models:
// data sizes and billable durations.
//
// The paper (and the 2012 AWS price list it mirrors) quotes sizes in GB and
// TB using binary multiples — its Example 3 treats 0.5 TB as 512 GB — so
// DataSize constants here are powers of 1024. Durations are billed in
// "started" units (every started hour is charged, cf. the paper's Example 2),
// which BillingGranularity models.
package units

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// DataSize is a data volume in bytes.
type DataSize int64

// Binary size multiples, matching the paper's GB/TB arithmetic.
const (
	Byte DataSize = 1
	KB   DataSize = 1 << 10
	MB   DataSize = 1 << 20
	GB   DataSize = 1 << 30
	TB   DataSize = 1 << 40
	PB   DataSize = 1 << 50
)

// FromGB builds a DataSize from a (possibly fractional) number of gigabytes.
func FromGB(gb float64) DataSize {
	return DataSize(math.Round(gb * float64(GB)))
}

// GBs returns the size as a float64 number of gigabytes.
func (s DataSize) GBs() float64 { return float64(s) / float64(GB) }

// TBs returns the size as a float64 number of terabytes.
func (s DataSize) TBs() float64 { return float64(s) / float64(TB) }

// Bytes returns the raw byte count.
func (s DataSize) Bytes() int64 { return int64(s) }

// Add returns s + o.
func (s DataSize) Add(o DataSize) DataSize { return s + o }

// Sub returns s - o.
func (s DataSize) Sub(o DataSize) DataSize { return s - o }

// MulInt returns s * n.
func (s DataSize) MulInt(n int64) DataSize { return s * DataSize(n) }

// MulFloat returns s scaled by f, rounded to the nearest byte.
func (s DataSize) MulFloat(f float64) DataSize {
	return DataSize(math.Round(float64(s) * f))
}

// String renders the size with a binary unit suffix, e.g. "500.00 GB".
func (s DataSize) String() string {
	var b [32]byte
	return string(s.AppendString(b[:0]))
}

// AppendString appends the String form to dst.
//
// The value is a ratio of integers with a power of two below, so its
// two decimals are exact integer arithmetic, rounded half to even — what
// fmt's %.2f prints of the same quotient. The unit is settled after the
// rounding: a size within half a hundredth of the next unit is 1.00 of
// that, not 1024.00 of this.
//
//mvlint:hotpath
func (s DataSize) AppendString(dst []byte) []byte {
	// The magnitude is taken in uint64: -math.MinInt64 does not fit.
	v := uint64(s)
	if s < 0 {
		dst = append(dst, '-')
		v = -v
	}
	if v < uint64(KB) {
		dst = strconv.AppendUint(dst, v, 10)
		return append(dst, " B"...)
	}
	// unit is 2^(10·(i+1)) for suffixes[i].
	i := (bits.Len64(v)-1)/10 - 1
	if i >= len(suffixes) {
		i = len(suffixes) - 1
	}
	shift := uint(10 * (i + 1))
	hi, lo := bits.Mul64(v, 100)
	hundredths := hi<<(64-shift) | lo>>shift
	rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && hundredths&1 == 1 {
		hundredths++
	}
	if hundredths == 1024*100 && i < len(suffixes)-1 {
		hundredths, i = 100, i+1
	}
	dst = strconv.AppendUint(dst, hundredths/100, 10)
	dst = append(dst, '.', byte('0'+hundredths/10%10), byte('0'+hundredths%10))
	return append(dst, suffixes[i]...)
}

var suffixes = [...]string{" KB", " MB", " GB", " TB", " PB"}

// ParseDataSize parses strings like "500GB", "1.5 TB", "10gb", "42" (bytes).
func ParseDataSize(s string) (DataSize, error) {
	orig := s
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := Byte
	for _, u := range []struct {
		suffix string
		m      DataSize
	}{
		{"PB", PB}, {"TB", TB}, {"GB", GB}, {"MB", MB}, {"KB", KB}, {"B", Byte},
	} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.m
			s = strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			break
		}
	}
	if s == "" {
		return 0, fmt.Errorf("units: cannot parse size %q", orig)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse size %q: %v", orig, err)
	}
	return DataSize(math.Round(f * float64(mult))), nil
}

// MustParseDataSize is ParseDataSize that panics on error, for fixtures.
func MustParseDataSize(s string) DataSize {
	v, err := ParseDataSize(s)
	if err != nil {
		panic(err)
	}
	return v
}

// BillingGranularity selects how a provider rounds compute time before
// charging it. AWS in 2012 charged every started instance-hour; modern
// providers charge per second. Exact is useful for analytical comparisons.
type BillingGranularity int

const (
	// BillPerHour charges every started hour (the paper's RoundUp).
	BillPerHour BillingGranularity = iota
	// BillPerMinute charges every started minute.
	BillPerMinute
	// BillPerSecond charges every started second.
	BillPerSecond
	// BillExact charges the exact fractional duration.
	BillExact
)

// String implements fmt.Stringer.
func (g BillingGranularity) String() string {
	switch g {
	case BillPerHour:
		return "per-hour"
	case BillPerMinute:
		return "per-minute"
	case BillPerSecond:
		return "per-second"
	case BillExact:
		return "exact"
	default:
		return fmt.Sprintf("BillingGranularity(%d)", int(g))
	}
}

// BillableHours returns the number of hours charged for running duration d
// under granularity g. The result is fractional for sub-hour granularities
// (e.g. 90 minutes billed per-minute is 1.5 hours) and an integer number of
// hours for BillPerHour (the paper's "every started hour is charged").
// Negative durations charge zero.
func (g BillingGranularity) BillableHours(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	switch g {
	case BillPerHour:
		return float64(ceilDiv(int64(d), int64(time.Hour)))
	case BillPerMinute:
		return float64(ceilDiv(int64(d), int64(time.Minute))) / 60
	case BillPerSecond:
		return float64(ceilDiv(int64(d), int64(time.Second))) / 3600
	default:
		return d.Hours()
	}
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// HoursToDuration converts a fractional hour count to a time.Duration.
func HoursToDuration(h float64) time.Duration {
	return time.Duration(math.Round(h * float64(time.Hour)))
}

// DurationFromHours is an alias of HoursToDuration kept for readability at
// call sites that mirror the paper's "t = 0.2 hour" parameters.
func DurationFromHours(h float64) time.Duration { return HoursToDuration(h) }
