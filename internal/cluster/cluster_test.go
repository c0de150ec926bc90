package cluster

import (
	"testing"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
)

func twoSmalls(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	if _, err := New(pricing.AWS2012(), "small", 0); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := New(pricing.AWS2012(), "gigantic", 2); err == nil {
		t.Error("unknown instance accepted")
	}
}

func TestThroughputCalibration(t *testing.T) {
	// Two small instances (1 ECU each) at 25 GB/ECU/h scan 50 GB/h, so a
	// 10 GB full scan takes 0.2 h — the paper's per-query figure.
	c := twoSmalls(t)
	if got := c.Throughput(); got != 50*units.GB {
		t.Errorf("throughput = %v, want 50 GB/h", got)
	}
	if got := c.TimeFor(10 * units.GB); got != 12*time.Minute {
		t.Errorf("TimeFor(10GB) = %v, want 12m (0.2h)", got)
	}
	if c.TimeFor(0) != 0 || c.TimeFor(-units.GB) != 0 {
		t.Error("non-positive work should take zero time")
	}
}

func TestECUScalesThroughput(t *testing.T) {
	small := twoSmalls(t)
	large, err := New(pricing.AWS2012(), "large", 2)
	if err != nil {
		t.Fatal(err)
	}
	if large.Throughput() != small.Throughput().MulInt(4) {
		t.Errorf("large fleet throughput = %v, want 4× small's %v", large.Throughput(), small.Throughput())
	}
	if large.TimeFor(40*units.GB) >= small.TimeFor(40*units.GB) {
		t.Error("larger instances should be faster")
	}
}

// The paper's Example 2: 50 h on two small instances costs $12.
func TestComputeCostExample2(t *testing.T) {
	c := twoSmalls(t)
	if got := c.ComputeCost(50 * time.Hour); got != money.FromDollars(12) {
		t.Errorf("cost(50h) = %v, want $12", got)
	}
	// Round-up: 49h30m bills as 50 h per instance.
	if got := c.ComputeCost(49*time.Hour + 30*time.Minute); got != money.FromDollars(12) {
		t.Errorf("cost(49.5h) = %v, want $12", got)
	}
}

func TestDataScale(t *testing.T) {
	c := twoSmalls(t)
	c.DataScale = 1000
	// 10 MB of local work at scale 1000 models ≈10 GB in the cloud: ≈0.2 h.
	got := c.TimeFor(10 * units.MB)
	want := c.scaleFreeTime(t, 10*units.MB)
	if got <= want {
		t.Errorf("scaled time %v should exceed unscaled %v", got, want)
	}
	// 10 MB × 1000 = 10000 MB ≈ 9.77 GB → 9.77/50 h ≈ 11.7 min.
	if got < 11*time.Minute || got > 12*time.Minute {
		t.Errorf("scaled time = %v, want ≈11.7m", got)
	}
}

func (c *Cluster) scaleFreeTime(t *testing.T, w units.DataSize) time.Duration {
	t.Helper()
	saved := c.DataScale
	c.DataScale = 1
	defer func() { c.DataScale = saved }()
	return c.TimeFor(w)
}

func TestCostForWork(t *testing.T) {
	c := twoSmalls(t)
	// 100 GB → 2 h → 2 instances × 2 h × $0.12 = $0.48.
	if got := c.CostForWork(100 * units.GB); got != money.FromDollars(0.48) {
		t.Errorf("CostForWork = %v, want $0.48", got)
	}
}

func TestHourlyRateAndString(t *testing.T) {
	c := twoSmalls(t)
	if c.HourlyRate() != money.FromDollars(0.24) {
		t.Errorf("HourlyRate = %v, want $0.24", c.HourlyRate())
	}
	if c.String() == "" {
		t.Error("String empty")
	}
}

func TestFinerGranularityCheaper(t *testing.T) {
	aws, err := New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	nimbus, err := New(pricing.NimbusCompute(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	d := 10 * time.Minute
	// AWS bills a full hour for 10 minutes, Nimbus bills per second.
	if aws.ComputeCost(d) != money.FromDollars(0.24) {
		t.Errorf("aws 10m = %v", aws.ComputeCost(d))
	}
	want := money.FromDollars(0.09).MulFloat(float64(d) / float64(time.Hour)).MulInt(2)
	if nimbus.ComputeCost(d) != want {
		t.Errorf("nimbus 10m = %v, want %v", nimbus.ComputeCost(d), want)
	}
}
