package pricing

import (
	"reflect"
	"testing"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/units"
)

// Table 2 prices, verbatim.
func TestAWS2012ComputePrices(t *testing.T) {
	aws := AWS2012()
	want := map[string]string{
		"micro":  "$0.03",
		"small":  "$0.12",
		"large":  "$0.48",
		"xlarge": "$0.96",
	}
	for name, price := range want {
		it, err := aws.Compute.Instance(name)
		if err != nil {
			t.Fatalf("Instance(%q): %v", name, err)
		}
		if it.PricePerHour != money.MustParse(price) {
			t.Errorf("%s price = %v, want %s", name, it.PricePerHour, price)
		}
	}
	if _, err := aws.Compute.Instance("mega"); err == nil {
		t.Error("unknown instance accepted")
	}
}

// Paper Example 2: one small instance for 50 h costs RoundUp(50)·$0.12 = $6;
// two instances cost $12 (computed by the caller as 2×HourCost).
func TestHourCostExample2(t *testing.T) {
	aws := AWS2012()
	small, _ := aws.Compute.Instance("small")
	got := aws.Compute.HourCost(small, 50*time.Hour)
	if want := money.FromDollars(6); got != want {
		t.Errorf("HourCost(small, 50h) = %v, want %v", got, want)
	}
	// Every started hour is charged.
	got = aws.Compute.HourCost(small, 50*time.Hour+time.Minute)
	if want := money.FromDollars(0.12).MulInt(51); got != want {
		t.Errorf("HourCost(small, 50h01m) = %v, want %v", got, want)
	}
}

func TestStorageTariffCostFor(t *testing.T) {
	aws := AWS2012()
	// Example 9: 550 GB for 12 months at $0.14 = $924.
	got := aws.Storage.CostFor(550*units.GB, 12)
	if want := money.FromDollars(924); got != want {
		t.Errorf("CostFor(550GB, 12mo) = %v, want %v", got, want)
	}
	if aws.Storage.CostFor(550*units.GB, 0) != 0 {
		t.Error("zero months should cost zero")
	}
	if aws.Storage.CostFor(550*units.GB, -3) != 0 {
		t.Error("negative months should cost zero")
	}
}

func TestTransferTariff(t *testing.T) {
	aws := AWS2012()
	if got, want := aws.Transfer.EgressCost(10*units.GB), money.FromDollars(1.08); got != want {
		t.Errorf("EgressCost(10GB) = %v, want %v", got, want)
	}
}

func TestCatalogValidates(t *testing.T) {
	for name, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Errorf("provider %s invalid: %v", name, err)
		}
	}
}

func TestLookup(t *testing.T) {
	p, err := Lookup("aws-2012")
	if err != nil || p.Name != "aws-2012" {
		t.Errorf("Lookup(aws-2012) = %v, %v", p.Name, err)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Error("unknown provider accepted")
	}
	names := ProviderNames()
	if len(names) != 5 {
		t.Errorf("ProviderNames = %v, want 5 entries", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("ProviderNames not sorted: %v", names)
		}
	}
}

// LookupShared is Lookup without the copy: the same tariff, for every
// name, refused in the same words, and free of allocations — which is
// what the serving path resolves a named provider with on every miss.
func TestLookupSharedMatchesLookup(t *testing.T) {
	for _, name := range ProviderNames() {
		want, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LookupShared(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("LookupShared(%s) = %+v, %v; Lookup gives %+v", name, got, err, want)
		}
	}
	_, err := Lookup("nonexistent")
	if _, sharedErr := LookupShared("nonexistent"); sharedErr == nil || sharedErr.Error() != err.Error() {
		t.Errorf("LookupShared(nonexistent) = %v, Lookup says %v", sharedErr, err)
	}
	if allocs := testing.AllocsPerRun(20, func() { LookupShared(AWS2012Name) }); allocs != 0 {
		t.Errorf("LookupShared allocates %.0f times, want 0", allocs)
	}
}

// The catalog is built once and handed out as deep copies: mutating a
// looked-up provider must not leak into later lookups.
func TestCatalogReturnsIsolatedCopies(t *testing.T) {
	p1, err := Lookup("aws-2012")
	if err != nil {
		t.Fatal(err)
	}
	small := p1.Compute.Instances["small"]
	small.PricePerHour = money.MustParse("$99.99")
	p1.Compute.Instances["small"] = small
	p1.Storage.Table.Tiers[0].PricePerGB = money.MustParse("$99.99")
	p1.Transfer.Egress.Tiers[0].PricePerGB = money.MustParse("$99.99")

	p2, err := Lookup("aws-2012")
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Compute.Instances["small"].PricePerHour; got != money.MustParse("$0.12") {
		t.Errorf("instance mutation leaked into the catalog: %v", got)
	}
	if got := p2.Storage.Table.Tiers[0].PricePerGB; got != money.MustParse("$0.14") {
		t.Errorf("storage tier mutation leaked into the catalog: %v", got)
	}
	if got := p2.Transfer.Egress.Tiers[0].PricePerGB; got != 0 {
		t.Errorf("egress tier mutation leaked into the catalog: %v", got)
	}

	c := Catalog()
	delete(c, "aws-2012")
	if _, err := Lookup("aws-2012"); err != nil {
		t.Errorf("deleting from a Catalog() copy broke Lookup: %v", err)
	}
}

// The new fixtures exercise tariff shapes the original three do not:
// cumulus prices storage marginally (graduated), meridian prices egress
// as a slab and charges ingress.
func TestNewFixtureTierShapes(t *testing.T) {
	cu := CumulusStore()
	if cu.Storage.Table.Mode != Graduated {
		t.Fatalf("cumulus storage mode = %v, want graduated", cu.Storage.Table.Mode)
	}
	// 1 TB graduated: 512 GB at $0.16 + 512 GB at $0.12 = $143.36, where a
	// slab table would bill the whole volume at a single rate.
	got := cu.Storage.MonthlyCost(units.TB)
	if want := money.FromDollars(0.16).MulInt(512).Add(money.FromDollars(0.12).MulInt(512)); got != want {
		t.Errorf("cumulus 1TB storage = %v, want %v", got, want)
	}

	me := MeridianGrid()
	if me.Transfer.Egress.Mode != Slab {
		t.Fatalf("meridian egress mode = %v, want slab", me.Transfer.Egress.Mode)
	}
	// Slab egress: 2 TB lands in the 20 TB bracket, all 2048 GB at $0.10.
	got = me.Transfer.EgressCost(2 * units.TB)
	if want := money.FromDollars(0.10).MulInt(2048); got != want {
		t.Errorf("meridian 2TB egress = %v, want %v", got, want)
	}
	if me.Compute.Granularity != units.BillPerMinute {
		t.Errorf("meridian granularity = %v, want per-minute", me.Compute.Granularity)
	}
}

// The catalog accessors must not rebuild fixtures per call; this pins the
// cheap-copy path (run with -bench to quantify the win over the previous
// rebuild-everything implementation).
func BenchmarkLookup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Lookup("aws-2012"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCatalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := Catalog(); len(c) == 0 {
			b.Fatal("empty catalog")
		}
	}
}

func BenchmarkProviderNames(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := ProviderNames(); len(n) == 0 {
			b.Fatal("no names")
		}
	}
}

func TestProviderValidateRejectsBadConfigs(t *testing.T) {
	good := AWS2012()

	p := good
	p.Name = ""
	if err := p.Validate(); err == nil {
		t.Error("unnamed provider accepted")
	}

	p = AWS2012()
	p.Compute.Instances = nil
	if err := p.Validate(); err == nil {
		t.Error("provider without instances accepted")
	}

	p = AWS2012()
	p.Compute.Instances = map[string]InstanceType{
		"small": {Name: "mismatch", PricePerHour: money.FromDollars(1), ECU: 1},
	}
	if err := p.Validate(); err == nil {
		t.Error("mismatched instance key accepted")
	}

	p = AWS2012()
	p.Compute.Instances = map[string]InstanceType{
		"small": {Name: "small", PricePerHour: -money.FromDollars(1), ECU: 1},
	}
	if err := p.Validate(); err == nil {
		t.Error("negative instance price accepted")
	}

	p = AWS2012()
	p.Compute.Instances = map[string]InstanceType{
		"small": {Name: "small", PricePerHour: money.FromDollars(1), ECU: 0},
	}
	if err := p.Validate(); err == nil {
		t.Error("zero-ECU instance accepted")
	}

	p = AWS2012()
	p.Storage.Table.Tiers = nil
	if err := p.Validate(); err == nil {
		t.Error("empty storage table accepted")
	}

	p = AWS2012()
	p.Transfer.Egress.Tiers = []Tier{{UpTo: 0, PricePerGB: 1}, {UpTo: units.GB, PricePerGB: 1}}
	if err := p.Validate(); err == nil {
		t.Error("bad egress table accepted")
	}
}

func TestInstanceNamesSorted(t *testing.T) {
	names := AWS2012().Compute.InstanceNames()
	want := []string{"large", "micro", "small", "xlarge"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
}

func TestGranularitiesDiffer(t *testing.T) {
	// Stratus bills per minute: 90 minutes cost 1.5 h.
	st := StratusCloud()
	small, _ := st.Compute.Instance("small")
	got := st.Compute.HourCost(small, 90*time.Minute)
	if want := money.FromDollars(0.15).MulFloat(1.5); got != want {
		t.Errorf("stratus 90m = %v, want %v", got, want)
	}
	// Nimbus bills per second.
	nb := NimbusCompute()
	nsmall, _ := nb.Compute.Instance("small")
	got = nb.Compute.HourCost(nsmall, 30*time.Minute)
	if want := money.FromDollars(0.09).MulFloat(0.5); got != want {
		t.Errorf("nimbus 30m = %v, want %v", got, want)
	}
}
