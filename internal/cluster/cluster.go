// Package cluster simulates the rented compute fleet: a fixed number of
// identical instances (the paper's nbIC assumption, Section 4) with a
// linear scan-throughput model that converts data volumes processed by the
// execution engine into cloud wall-clock hours, and a billing adapter that
// charges every instance for the whole run at the provider's granularity.
package cluster

import (
	"fmt"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
)

// DefaultThroughputPerECU is the data volume one EC2 Compute Unit scans per
// hour. Calibrated so that a 2-small-instance cluster processes a full-scan
// query over 10 GB in ≈0.2 h, the figure the paper's experimental section
// reports.
const DefaultThroughputPerECU = 25 * units.GB

// Cluster is a fleet of identical instances rented from one provider.
type Cluster struct {
	// Provider supplies the tariff.
	Provider pricing.Provider
	// Instance is the rented configuration (identical across the fleet).
	Instance pricing.InstanceType
	// NbInstances is the paper's nbIC: the constant fleet size.
	NbInstances int
	// ThroughputPerECU is the volume one ECU scans per hour.
	ThroughputPerECU units.DataSize
	// DataScale multiplies observed work volumes before timing, letting a
	// scaled-down local dataset stand in for the full-size one (e.g. 1000
	// when 10 MB of local data model 10 GB in the cloud). Zero means 1.
	DataScale float64
	// JobOverhead is the fixed per-job startup latency (scheduling,
	// container launch, shuffle setup — ~2 min on the paper's Hadoop 0.20
	// cluster). It floors every job's duration regardless of input size,
	// which is what keeps tiny-view queries from becoming free.
	JobOverhead time.Duration
}

// New builds a cluster of nb instances of the named type from the provider.
func New(p pricing.Provider, instanceName string, nb int) (*Cluster, error) {
	if nb <= 0 {
		return nil, fmt.Errorf("cluster: non-positive instance count %d", nb)
	}
	it, err := p.Compute.Instance(instanceName)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		Provider:         p,
		Instance:         it,
		NbInstances:      nb,
		ThroughputPerECU: DefaultThroughputPerECU,
	}, nil
}

// scale returns the effective DataScale.
func (c *Cluster) scale() float64 {
	if c.DataScale <= 0 {
		return 1
	}
	return c.DataScale
}

// Throughput returns the fleet's aggregate scan rate per hour.
func (c *Cluster) Throughput() units.DataSize {
	perInst := c.ThroughputPerECU.MulFloat(c.Instance.ECU)
	return perInst.MulInt(int64(c.NbInstances))
}

// TimeFor converts a processed data volume into cluster wall-clock time.
func (c *Cluster) TimeFor(work units.DataSize) time.Duration {
	if work <= 0 {
		return 0
	}
	scaled := work.MulFloat(c.scale())
	hours := scaled.GBs() / c.Throughput().GBs()
	return units.HoursToDuration(hours)
}

// TimeForJob converts a processed volume into the wall-clock time of one
// job run: fixed startup overhead plus the scan time.
func (c *Cluster) TimeForJob(work units.DataSize) time.Duration {
	return c.JobOverhead + c.TimeFor(work)
}

// ComputeCost bills the whole fleet for a run of duration d: every instance
// is charged for the full wall clock at the provider's billing granularity
// (the paper's Example 2: 2 × RoundUp(50 h) × $0.12).
func (c *Cluster) ComputeCost(d time.Duration) money.Money {
	per := c.Provider.Compute.HourCost(c.Instance, d)
	return per.MulInt(int64(c.NbInstances))
}

// CostForWork is TimeFor followed by ComputeCost.
func (c *Cluster) CostForWork(work units.DataSize) money.Money {
	return c.ComputeCost(c.TimeFor(work))
}

// HourlyRate returns the fleet's total price per billed hour.
func (c *Cluster) HourlyRate() money.Money {
	return c.Instance.PricePerHour.MulInt(int64(c.NbInstances))
}

// String summarizes the fleet.
func (c *Cluster) String() string {
	return fmt.Sprintf("%d×%s@%s (%s, %v/h aggregate)",
		c.NbInstances, c.Instance.Name, c.Provider.Name, c.HourlyRate(), c.Throughput())
}
