package pricing

import (
	"encoding/json"
	"fmt"

	"vmcloud/internal/money"
	"vmcloud/internal/units"
)

// The JSON wire format uses human-readable figures ("$0.12", "1TB") so
// operators can author tariff files by hand; see testdata examples in the
// package tests.

type providerJSON struct {
	Name     string        `json:"name"`
	Compute  computeJSON   `json:"compute"`
	Storage  tierTableJSON `json:"storage"`
	Transfer transferJSON  `json:"transfer"`
}

type computeJSON struct {
	// Granularity is "per-hour", "per-minute", "per-second" or "exact".
	Granularity string         `json:"granularity"`
	Instances   []instanceJSON `json:"instances"`
}

type instanceJSON struct {
	Name         string  `json:"name"`
	PricePerHour string  `json:"price_per_hour"`
	RAM          string  `json:"ram,omitempty"`
	ECU          float64 `json:"ecu"`
	LocalStorage string  `json:"local_storage,omitempty"`
}

type tierTableJSON struct {
	// Mode is "slab" or "graduated".
	Mode  string     `json:"mode"`
	Tiers []tierJSON `json:"tiers"`
}

type tierJSON struct {
	// UpTo is a size like "1TB"; empty means unbounded (last tier).
	UpTo       string `json:"up_to,omitempty"`
	PricePerGB string `json:"price_per_gb"`
}

type transferJSON struct {
	IngressFree  bool          `json:"ingress_free"`
	IngressPerGB string        `json:"ingress_per_gb,omitempty"`
	Egress       tierTableJSON `json:"egress"`
}

// MarshalProvider renders a provider as indented JSON.
func MarshalProvider(p Provider) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pj := providerJSON{Name: p.Name}
	pj.Compute.Granularity = p.Compute.Granularity.String()
	for _, name := range p.Compute.InstanceNames() {
		it := p.Compute.Instances[name]
		ij := instanceJSON{Name: it.Name, PricePerHour: it.PricePerHour.String(), ECU: it.ECU}
		if it.RAM != 0 {
			ij.RAM = it.RAM.String()
		}
		if it.LocalStorage != 0 {
			ij.LocalStorage = it.LocalStorage.String()
		}
		pj.Compute.Instances = append(pj.Compute.Instances, ij)
	}
	pj.Storage = tierTableToJSON(p.Storage.Table)
	pj.Transfer.IngressFree = p.Transfer.IngressFree
	if p.Transfer.IngressPerGB != 0 {
		pj.Transfer.IngressPerGB = p.Transfer.IngressPerGB.String()
	}
	pj.Transfer.Egress = tierTableToJSON(p.Transfer.Egress)
	return json.MarshalIndent(pj, "", "  ")
}

func tierTableToJSON(t TierTable) tierTableJSON {
	tj := tierTableJSON{Mode: t.Mode.String()}
	for _, tier := range t.Tiers {
		j := tierJSON{PricePerGB: tier.PricePerGB.String()}
		if tier.UpTo != 0 {
			j.UpTo = tier.UpTo.String()
		}
		tj.Tiers = append(tj.Tiers, j)
	}
	return tj
}

// UnmarshalProvider parses a provider from JSON and validates it.
func UnmarshalProvider(data []byte) (Provider, error) {
	var pj providerJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return Provider{}, fmt.Errorf("pricing: parse provider: %w", err)
	}
	p := Provider{Name: pj.Name}
	g, err := parseGranularity(pj.Compute.Granularity)
	if err != nil {
		return Provider{}, err
	}
	p.Compute.Granularity = g
	p.Compute.Instances = make(map[string]InstanceType, len(pj.Compute.Instances))
	for _, ij := range pj.Compute.Instances {
		it := InstanceType{Name: ij.Name, ECU: ij.ECU}
		if it.PricePerHour, err = money.Parse(ij.PricePerHour); err != nil {
			return Provider{}, fmt.Errorf("pricing: instance %s: %w", ij.Name, err)
		}
		if ij.RAM != "" {
			if it.RAM, err = units.ParseDataSize(ij.RAM); err != nil {
				return Provider{}, fmt.Errorf("pricing: instance %s: %w", ij.Name, err)
			}
		}
		if ij.LocalStorage != "" {
			if it.LocalStorage, err = units.ParseDataSize(ij.LocalStorage); err != nil {
				return Provider{}, fmt.Errorf("pricing: instance %s: %w", ij.Name, err)
			}
		}
		p.Compute.Instances[ij.Name] = it
	}
	if p.Storage.Table, err = tierTableFromJSON(pj.Storage); err != nil {
		return Provider{}, fmt.Errorf("pricing: storage: %w", err)
	}
	p.Transfer.IngressFree = pj.Transfer.IngressFree
	if pj.Transfer.IngressPerGB != "" {
		if p.Transfer.IngressPerGB, err = money.Parse(pj.Transfer.IngressPerGB); err != nil {
			return Provider{}, fmt.Errorf("pricing: ingress: %w", err)
		}
	}
	if p.Transfer.Egress, err = tierTableFromJSON(pj.Transfer.Egress); err != nil {
		return Provider{}, fmt.Errorf("pricing: egress: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Provider{}, err
	}
	return p, nil
}

func tierTableFromJSON(tj tierTableJSON) (TierTable, error) {
	var mode TierMode
	switch tj.Mode {
	case "slab":
		mode = Slab
	case "graduated", "":
		mode = Graduated
	default:
		return TierTable{}, fmt.Errorf("unknown tier mode %q", tj.Mode)
	}
	t := TierTable{Mode: mode}
	for _, j := range tj.Tiers {
		tier := Tier{}
		var err error
		if j.UpTo != "" {
			if tier.UpTo, err = units.ParseDataSize(j.UpTo); err != nil {
				return TierTable{}, err
			}
		}
		if tier.PricePerGB, err = money.Parse(j.PricePerGB); err != nil {
			return TierTable{}, err
		}
		t.Tiers = append(t.Tiers, tier)
	}
	return t, nil
}

func parseGranularity(s string) (units.BillingGranularity, error) {
	switch s {
	case "per-hour", "":
		return units.BillPerHour, nil
	case "per-minute":
		return units.BillPerMinute, nil
	case "per-second":
		return units.BillPerSecond, nil
	case "exact":
		return units.BillExact, nil
	default:
		return 0, fmt.Errorf("pricing: unknown billing granularity %q", s)
	}
}
