package pricing

import (
	"fmt"
	"sort"
	"sync"

	"vmcloud/internal/money"
	"vmcloud/internal/units"
)

// AWS2012Name names the AWS2012 tariff, the one a config without a
// provider gets.
const AWS2012Name = "aws-2012"

// AWS2012 returns the provider fixture reproducing the paper's Tables 2
// (EC2 compute), 3 (bandwidth) and 4 (S3 storage) exactly.
func AWS2012() Provider {
	return Provider{
		Name: AWS2012Name,
		Compute: ComputeTariff{
			Granularity: units.BillPerHour,
			Instances: map[string]InstanceType{
				"micro": {
					Name:         "micro",
					PricePerHour: money.MustParse("$0.03"),
					RAM:          613 * units.MB,
					ECU:          0.25,
					LocalStorage: 0,
				},
				"small": {
					Name:         "small",
					PricePerHour: money.MustParse("$0.12"),
					RAM:          units.FromGB(1.7),
					ECU:          1,
					LocalStorage: 160 * units.GB,
				},
				"large": {
					Name:         "large",
					PricePerHour: money.MustParse("$0.48"),
					RAM:          units.FromGB(7.5),
					ECU:          4,
					LocalStorage: 850 * units.GB,
				},
				"xlarge": {
					Name:         "xlarge",
					PricePerHour: money.MustParse("$0.96"),
					RAM:          15 * units.GB,
					ECU:          8,
					LocalStorage: 1690 * units.GB,
				},
			},
		},
		// Table 4: first 1 TB $0.14/GB/month, next 49 TB $0.125, next 450 TB
		// $0.11. Slab mode matches Formula 5's cs(DS)·s(DS) and Example 3.
		Storage: StorageTariff{
			Table: TierTable{
				Mode: Slab,
				Tiers: []Tier{
					{UpTo: 1 * units.TB, PricePerGB: money.MustParse("$0.14")},
					{UpTo: 50 * units.TB, PricePerGB: money.MustParse("$0.125")},
					{UpTo: 500 * units.TB, PricePerGB: money.MustParse("$0.11")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.095")},
				},
			},
		},
		// Table 3: input free; output first GB free, up to 10 TB $0.12/GB,
		// next 40 TB $0.09, next 100 TB $0.07. Graduated mode matches
		// Example 1's (10−1)×0.12.
		Transfer: TransferTariff{
			IngressFree: true,
			Egress: TierTable{
				Mode: Graduated,
				Tiers: []Tier{
					{UpTo: 1 * units.GB, PricePerGB: 0},
					{UpTo: 10 * units.TB, PricePerGB: money.MustParse("$0.12")},
					{UpTo: 50 * units.TB, PricePerGB: money.MustParse("$0.09")},
					{UpTo: 150 * units.TB, PricePerGB: money.MustParse("$0.07")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.05")},
				},
			},
		},
	}
}

// StratusCloud returns a synthetic alternative provider with cheaper storage
// but pricier compute and per-minute billing — used by the multi-CSP
// comparison the paper lists as future work (§8).
func StratusCloud() Provider {
	return Provider{
		Name: "stratus",
		Compute: ComputeTariff{
			Granularity: units.BillPerMinute,
			Instances: map[string]InstanceType{
				"micro": {Name: "micro", PricePerHour: money.MustParse("$0.04"), RAM: units.GB, ECU: 0.3},
				"small": {Name: "small", PricePerHour: money.MustParse("$0.15"), RAM: 2 * units.GB, ECU: 1.1, LocalStorage: 100 * units.GB},
				"large": {Name: "large", PricePerHour: money.MustParse("$0.55"), RAM: 8 * units.GB, ECU: 4.4, LocalStorage: 500 * units.GB},
			},
		},
		Storage: StorageTariff{
			Table: TierTable{
				Mode: Slab,
				Tiers: []Tier{
					{UpTo: 5 * units.TB, PricePerGB: money.MustParse("$0.10")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.08")},
				},
			},
		},
		Transfer: TransferTariff{
			IngressFree: true,
			Egress: TierTable{
				Mode: Graduated,
				Tiers: []Tier{
					{UpTo: 5 * units.GB, PricePerGB: 0},
					{UpTo: 0, PricePerGB: money.MustParse("$0.15")},
				},
			},
		},
	}
}

// NimbusCompute returns a synthetic compute-optimised provider: cheap
// per-second-billed instances, expensive storage and egress.
func NimbusCompute() Provider {
	return Provider{
		Name: "nimbus",
		Compute: ComputeTariff{
			Granularity: units.BillPerSecond,
			Instances: map[string]InstanceType{
				"small":  {Name: "small", PricePerHour: money.MustParse("$0.09"), RAM: 2 * units.GB, ECU: 1.2, LocalStorage: 80 * units.GB},
				"large":  {Name: "large", PricePerHour: money.MustParse("$0.36"), RAM: 8 * units.GB, ECU: 4.8, LocalStorage: 400 * units.GB},
				"xlarge": {Name: "xlarge", PricePerHour: money.MustParse("$0.72"), RAM: 16 * units.GB, ECU: 9.6, LocalStorage: 800 * units.GB},
			},
		},
		Storage: StorageTariff{
			Table: TierTable{
				Mode: Slab,
				Tiers: []Tier{
					{UpTo: 1 * units.TB, PricePerGB: money.MustParse("$0.18")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.16")},
				},
			},
		},
		Transfer: TransferTariff{
			IngressFree:  false,
			IngressPerGB: money.MustParse("$0.01"),
			Egress: TierTable{
				Mode: Graduated,
				Tiers: []Tier{
					{UpTo: 0, PricePerGB: money.MustParse("$0.18")},
				},
			},
		},
	}
}

// CumulusStore returns a synthetic storage-centric provider ("cumulus")
// whose storage table is GRADUATED — each bracket charged marginally,
// unlike the slab storage of every other fixture — so cross-provider
// comparisons exercise both storage semantics.
func CumulusStore() Provider {
	return Provider{
		Name: "cumulus",
		Compute: ComputeTariff{
			Granularity: units.BillPerMinute,
			Instances: map[string]InstanceType{
				"micro":  {Name: "micro", PricePerHour: money.MustParse("$0.035"), RAM: units.GB, ECU: 0.28},
				"small":  {Name: "small", PricePerHour: money.MustParse("$0.11"), RAM: 2 * units.GB, ECU: 0.95, LocalStorage: 120 * units.GB},
				"large":  {Name: "large", PricePerHour: money.MustParse("$0.43"), RAM: 8 * units.GB, ECU: 3.9, LocalStorage: 600 * units.GB},
				"xlarge": {Name: "xlarge", PricePerHour: money.MustParse("$0.84"), RAM: 16 * units.GB, ECU: 7.8, LocalStorage: 1200 * units.GB},
			},
		},
		Storage: StorageTariff{
			Table: TierTable{
				Mode: Graduated,
				Tiers: []Tier{
					{UpTo: 512 * units.GB, PricePerGB: money.MustParse("$0.16")},
					{UpTo: 10 * units.TB, PricePerGB: money.MustParse("$0.12")},
					{UpTo: 100 * units.TB, PricePerGB: money.MustParse("$0.09")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.07")},
				},
			},
		},
		Transfer: TransferTariff{
			IngressFree: true,
			Egress: TierTable{
				Mode: Graduated,
				Tiers: []Tier{
					{UpTo: 10 * units.GB, PricePerGB: 0},
					{UpTo: 20 * units.TB, PricePerGB: money.MustParse("$0.10")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.06")},
				},
			},
		},
	}
}

// MeridianGrid returns a synthetic provider ("meridian") with per-minute
// billing, the catalog's cheapest slab storage, paid ingress and — unique
// among the fixtures — SLAB egress: the whole monthly egress volume is
// charged at the rate of the bracket it lands in.
func MeridianGrid() Provider {
	return Provider{
		Name: "meridian",
		Compute: ComputeTariff{
			Granularity: units.BillPerMinute,
			Instances: map[string]InstanceType{
				"small":  {Name: "small", PricePerHour: money.MustParse("$0.14"), RAM: units.FromGB(1.5), ECU: 1.0, LocalStorage: 120 * units.GB},
				"large":  {Name: "large", PricePerHour: money.MustParse("$0.50"), RAM: 6 * units.GB, ECU: 4.2, LocalStorage: 640 * units.GB},
				"xlarge": {Name: "xlarge", PricePerHour: money.MustParse("$1.00"), RAM: 12 * units.GB, ECU: 8.4, LocalStorage: 1280 * units.GB},
			},
		},
		Storage: StorageTariff{
			Table: TierTable{
				Mode: Slab,
				Tiers: []Tier{
					{UpTo: 2 * units.TB, PricePerGB: money.MustParse("$0.09")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.075")},
				},
			},
		},
		Transfer: TransferTariff{
			IngressFree:  false,
			IngressPerGB: money.MustParse("$0.005"),
			Egress: TierTable{
				Mode: Slab,
				Tiers: []Tier{
					{UpTo: 1 * units.TB, PricePerGB: money.MustParse("$0.13")},
					{UpTo: 20 * units.TB, PricePerGB: money.MustParse("$0.10")},
					{UpTo: 0, PricePerGB: money.MustParse("$0.08")},
				},
			},
		},
	}
}

// builtins is the immutable, built-once catalog state; the exported
// accessors hand out clones so callers can never corrupt the fixtures.
type builtins struct {
	providers map[string]*Provider
	names     []string // sorted
}

var loadBuiltins = sync.OnceValue(func() builtins {
	ps := []Provider{AWS2012(), StratusCloud(), NimbusCompute(), CumulusStore(), MeridianGrid()}
	b := builtins{providers: make(map[string]*Provider, len(ps))}
	for i := range ps {
		p := &ps[i]
		b.providers[p.Name] = p
		b.names = append(b.names, p.Name)
	}
	sort.Strings(b.names)
	return b
})

// Catalog returns all built-in providers keyed by name. The fixtures are
// constructed once per process; each call returns fresh deep copies, so
// callers may mutate the result freely.
func Catalog() map[string]Provider {
	b := loadBuiltins()
	out := make(map[string]Provider, len(b.providers))
	for _, n := range b.names {
		out[n] = b.providers[n].Clone()
	}
	return out
}

// ProviderNames returns the sorted names of the built-in catalog.
func ProviderNames() []string {
	return append([]string(nil), loadBuiltins().names...)
}

// Lookup returns a deep copy of a built-in provider by name, the
// caller's to edit.
func Lookup(name string) (Provider, error) {
	p, err := LookupShared(name)
	if err != nil {
		return Provider{}, err
	}
	return p.Clone(), nil
}

// LookupShared returns a built-in provider by name without copying it:
// the pointer is to the catalog's own value, so the caller may read and
// price against it but must not write through it. The serving path,
// which resolves a provider per request and only ever reads it, uses
// this; anything that edits a tariff wants Lookup.
func LookupShared(name string) (*Provider, error) {
	p, ok := loadBuiltins().providers[name]
	if !ok {
		return nil, fmt.Errorf("pricing: unknown provider %q (have %v)", name, ProviderNames())
	}
	return p, nil
}

// Exists reports whether a built-in provider of that name exists — the
// allocation-free validation companion to Lookup.
func Exists(name string) bool {
	_, ok := loadBuiltins().providers[name]
	return ok
}
