package pricing

import (
	"fmt"
	"sort"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/units"
)

// InstanceType describes a rentable compute configuration (one row of the
// paper's Table 2), together with the capacity attributes the cluster
// simulator needs.
type InstanceType struct {
	// Name identifies the configuration, e.g. "small".
	Name string
	// PricePerHour is the rental price per (started) hour.
	PricePerHour money.Money
	// RAM is the instance memory.
	RAM units.DataSize
	// ECU is the relative compute power in EC2 Compute Units; the cluster
	// simulator scales scan throughput linearly with ECU.
	ECU float64
	// LocalStorage is the instance-attached disk.
	LocalStorage units.DataSize
}

// ComputeTariff prices instance rental: a set of instance types and the
// billing rounding the provider applies ("every started hour is charged").
type ComputeTariff struct {
	Granularity units.BillingGranularity
	Instances   map[string]InstanceType
}

// Instance looks up an instance type by name.
func (c ComputeTariff) Instance(name string) (InstanceType, error) {
	it, ok := c.Instances[name]
	if !ok {
		return InstanceType{}, fmt.Errorf("pricing: unknown instance type %q (have %v)", name, c.InstanceNames())
	}
	return it, nil
}

// InstanceNames returns the sorted list of instance type names.
func (c ComputeTariff) InstanceNames() []string {
	names := make([]string, 0, len(c.Instances))
	for n := range c.Instances {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HourCost charges one instance of the given type for a run of duration d,
// applying the tariff's billing granularity: price × billable-hours.
func (c ComputeTariff) HourCost(it InstanceType, d time.Duration) money.Money {
	return it.PricePerHour.MulFloat(c.Granularity.BillableHours(d))
}

// StorageTariff prices data at rest in $/GB/month tiers (Table 4).
type StorageTariff struct {
	Table TierTable
}

// MonthlyCost returns the charge for holding size for one month.
func (s StorageTariff) MonthlyCost(size units.DataSize) money.Money {
	return s.Table.Cost(size)
}

// CostFor returns the charge for holding size for the given number of
// months. Formula 5 semantics: the per-month charge is computed from the
// interval's constant volume, then scaled by the interval length.
func (s StorageTariff) CostFor(size units.DataSize, months float64) money.Money {
	if months <= 0 {
		return 0
	}
	return s.MonthlyCost(size).MulFloat(months)
}

// TransferTariff prices data movement (Table 3). Ingress was free on 2012
// AWS; egress is tiered per GB.
//
// The two ingress fields are inert: the cost model bills only egress
// (Formula 3 charges the query results shipped out; the dataset is
// already in the cloud), so no bill reads them. They stay because they
// are part of the tariff wire form — parsed, validated and echoed by
// /v1/tariffs — and dropping them would change those bytes.
type TransferTariff struct {
	// IngressFree marks inbound transfer as free of charge.
	IngressFree bool
	// IngressPerGB is the inbound rate when IngressFree is false.
	IngressPerGB money.Money
	// Egress is the tiered outbound table (typically graduated with a free
	// first bracket).
	Egress TierTable
}

// EgressCost returns the charge for transferring size out of the cloud.
func (t TransferTariff) EgressCost(size units.DataSize) money.Money {
	return t.Egress.Cost(size)
}

// Provider bundles the three billed dimensions of a cloud service provider.
type Provider struct {
	Name     string
	Compute  ComputeTariff
	Storage  StorageTariff
	Transfer TransferTariff
}

// Clone returns a deep copy of the provider: mutating the copy's instance
// map or tier slices cannot affect the receiver. This is what lets the
// built-in catalog be constructed once and handed out safely.
func (p Provider) Clone() Provider {
	out := p
	if p.Compute.Instances != nil {
		m := make(map[string]InstanceType, len(p.Compute.Instances))
		for k, v := range p.Compute.Instances {
			m[k] = v
		}
		out.Compute.Instances = m
	}
	out.Storage.Table.Tiers = append([]Tier(nil), p.Storage.Table.Tiers...)
	out.Transfer.Egress.Tiers = append([]Tier(nil), p.Transfer.Egress.Tiers...)
	return out
}

// Validate checks all tier tables and instance definitions.
func (p Provider) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("pricing: provider has no name")
	}
	if len(p.Compute.Instances) == 0 {
		return fmt.Errorf("pricing: provider %s has no instance types", p.Name)
	}
	for name, it := range p.Compute.Instances {
		if it.Name != name {
			return fmt.Errorf("pricing: provider %s instance key %q does not match name %q", p.Name, name, it.Name)
		}
		if it.PricePerHour < 0 {
			return fmt.Errorf("pricing: provider %s instance %s has negative price", p.Name, name)
		}
		if it.ECU <= 0 {
			return fmt.Errorf("pricing: provider %s instance %s has non-positive ECU", p.Name, name)
		}
	}
	if err := p.Storage.Table.Validate(); err != nil {
		return fmt.Errorf("pricing: provider %s storage: %w", p.Name, err)
	}
	if err := p.Transfer.Egress.Validate(); err != nil {
		return fmt.Errorf("pricing: provider %s egress: %w", p.Name, err)
	}
	return nil
}
