// Package simtime models the billing calendar used by the storage cost
// model (Formula 5 of the paper): the storage period is divided into
// intervals during which the stored data size is constant, and each interval
// is billed as size × months × rate.
package simtime

import (
	"fmt"
	"sort"

	"vmcloud/internal/units"
)

// Months measures storage time in (possibly fractional) months, the billing
// unit of 2012-era S3 pricing.
type Months float64

// Interval is a half-open billing interval [Start, End) in months since the
// beginning of the storage period.
type Interval struct {
	Start Months
	End   Months
}

// Length returns End - Start. Negative lengths are reported as zero.
func (iv Interval) Length() Months {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// String implements fmt.Stringer.
func (iv Interval) String() string {
	return fmt.Sprintf("[%gmo, %gmo)", float64(iv.Start), float64(iv.End))
}

// SizedInterval is an interval with the constant data volume stored in it.
type SizedInterval struct {
	Interval
	Size units.DataSize
}

// Event records a change in stored volume at a point in the storage period,
// e.g. "at the beginning of the eighth month, insert 2 TB" (Example 3).
type Event struct {
	At    Months
	Delta units.DataSize
}

// Timeline describes an entire storage period: the initial volume, a horizon,
// and volume-changing events inside it.
type Timeline struct {
	Initial units.DataSize
	Horizon Months
	Events  []Event
}

// Intervals slices the storage period into maximal constant-size intervals,
// the exact structure Formula 5 sums over. Events outside [0, Horizon) are
// ignored; events at the same instant are merged. The returned intervals
// partition [0, Horizon).
func (tl Timeline) Intervals() ([]SizedInterval, error) {
	if tl.Horizon < 0 {
		return nil, fmt.Errorf("simtime: negative horizon %g", float64(tl.Horizon))
	}
	if tl.Initial < 0 {
		return nil, fmt.Errorf("simtime: negative initial size %v", tl.Initial)
	}
	if tl.Horizon == 0 {
		return nil, nil
	}
	evs := make([]Event, 0, len(tl.Events))
	for _, e := range tl.Events {
		if e.At < 0 {
			return nil, fmt.Errorf("simtime: event before period start at %g months", float64(e.At))
		}
		if e.At >= tl.Horizon {
			continue
		}
		evs = append(evs, e)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	var out []SizedInterval
	cur := tl.Initial
	start := Months(0)
	for i := 0; i < len(evs); {
		at := evs[i].At
		var delta units.DataSize
		for i < len(evs) && evs[i].At == at {
			delta += evs[i].Delta
			i++
		}
		if at > start {
			out = append(out, SizedInterval{Interval{start, at}, cur})
			start = at
		}
		cur += delta
		if cur < 0 {
			return nil, fmt.Errorf("simtime: stored volume becomes negative (%v) at %g months", cur, float64(at))
		}
	}
	out = append(out, SizedInterval{Interval{start, tl.Horizon}, cur})
	return out, nil
}
