package simtime

import (
	"testing"
	"testing/quick"

	"vmcloud/internal/units"
)

func TestIntervalsNoEvents(t *testing.T) {
	tl := Timeline{Initial: 500 * units.GB, Horizon: 12}
	ivs, err := tl.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want 1", len(ivs))
	}
	if ivs[0].Start != 0 || ivs[0].End != 12 || ivs[0].Size != 500*units.GB {
		t.Errorf("interval = %+v", ivs[0])
	}
}

// The paper's Example 3: 512 GB stored for 12 months, 2048 GB inserted at the
// start of month 8 (i.e. after 7 elapsed months) → intervals [0,7) @512 GB
// and [7,12) @2560 GB.
func TestIntervalsExample3(t *testing.T) {
	tl := Timeline{
		Initial: 512 * units.GB,
		Horizon: 12,
		Events:  []Event{{At: 7, Delta: 2048 * units.GB}},
	}
	ivs, err := tl.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2", len(ivs))
	}
	if ivs[0].Length() != 7 || ivs[0].Size != 512*units.GB {
		t.Errorf("first interval = %+v", ivs[0])
	}
	if ivs[1].Length() != 5 || ivs[1].Size != 2560*units.GB {
		t.Errorf("second interval = %+v", ivs[1])
	}
}

func TestIntervalsMergesSimultaneousEvents(t *testing.T) {
	tl := Timeline{
		Initial: 100 * units.GB,
		Horizon: 10,
		Events: []Event{
			{At: 5, Delta: 10 * units.GB},
			{At: 5, Delta: -4 * units.GB},
		},
	}
	ivs, err := tl.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals, want 2: %+v", len(ivs), ivs)
	}
	if ivs[1].Size != 106*units.GB {
		t.Errorf("merged size = %v, want 106 GB", ivs[1].Size)
	}
}

func TestIntervalsIgnoresEventsAtOrPastHorizon(t *testing.T) {
	tl := Timeline{
		Initial: 10 * units.GB,
		Horizon: 6,
		Events:  []Event{{At: 6, Delta: units.GB}, {At: 100, Delta: units.GB}},
	}
	ivs, err := tl.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0].Size != 10*units.GB {
		t.Errorf("intervals = %+v", ivs)
	}
}

func TestIntervalsEventAtZero(t *testing.T) {
	tl := Timeline{
		Initial: 10 * units.GB,
		Horizon: 6,
		Events:  []Event{{At: 0, Delta: 5 * units.GB}},
	}
	ivs, err := tl.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0].Size != 15*units.GB {
		t.Errorf("intervals = %+v", ivs)
	}
}

func TestIntervalsErrors(t *testing.T) {
	if _, err := (Timeline{Initial: units.GB, Horizon: -1}).Intervals(); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := (Timeline{Initial: -units.GB, Horizon: 1}).Intervals(); err == nil {
		t.Error("negative initial size accepted")
	}
	if _, err := (Timeline{Initial: units.GB, Horizon: 5, Events: []Event{{At: -1, Delta: units.GB}}}).Intervals(); err == nil {
		t.Error("pre-period event accepted")
	}
	bad := Timeline{Initial: units.GB, Horizon: 5, Events: []Event{{At: 1, Delta: -2 * units.GB}}}
	if _, err := bad.Intervals(); err == nil {
		t.Error("negative running volume accepted")
	}
}

func TestIntervalsZeroHorizon(t *testing.T) {
	ivs, err := (Timeline{Initial: units.GB, Horizon: 0}).Intervals()
	if err != nil || ivs != nil {
		t.Errorf("got %v, %v; want nil, nil", ivs, err)
	}
}

// Property: intervals always partition [0, Horizon) — contiguous, ordered,
// covering, regardless of event order.
func TestIntervalsPartitionProperty(t *testing.T) {
	f := func(sizes [4]uint8, ats [4]uint8, horizon uint8) bool {
		h := Months(horizon%24) + 1
		tl := Timeline{Initial: units.DataSize(sizes[0]) * units.GB, Horizon: h}
		for i := 1; i < 4; i++ {
			tl.Events = append(tl.Events, Event{
				At:    Months(ats[i] % 30),
				Delta: units.DataSize(sizes[i]) * units.GB,
			})
		}
		ivs, err := tl.Intervals()
		if err != nil {
			return false
		}
		prev := Months(0)
		for _, iv := range ivs {
			if iv.Start != prev || iv.End <= iv.Start {
				return false
			}
			prev = iv.End
		}
		return prev == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Start: 2, End: 7}
	if iv.Length() != 5 {
		t.Error("Length wrong")
	}
	if (Interval{Start: 3, End: 1}).Length() != 0 {
		t.Error("negative length should clamp to 0")
	}
	if iv.String() != "[2mo, 7mo)" {
		t.Errorf("String = %q", iv.String())
	}
}
