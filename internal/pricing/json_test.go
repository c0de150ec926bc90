package pricing

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/units"
)

func TestProviderJSONRoundTrip(t *testing.T) {
	for name, p := range Catalog() {
		data, err := MarshalProvider(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got, err := UnmarshalProvider(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v\n%s", name, err, data)
		}
		if got.Name != p.Name {
			t.Errorf("%s: name %q", name, got.Name)
		}
		if got.Compute.Granularity != p.Compute.Granularity {
			t.Errorf("%s: granularity %v vs %v", name, got.Compute.Granularity, p.Compute.Granularity)
		}
		if len(got.Compute.Instances) != len(p.Compute.Instances) {
			t.Errorf("%s: instance count %d vs %d", name, len(got.Compute.Instances), len(p.Compute.Instances))
		}
		if got.Transfer.IngressFree != p.Transfer.IngressFree || got.Transfer.IngressPerGB != p.Transfer.IngressPerGB {
			t.Errorf("%s: ingress tariff %v/%v vs %v/%v", name,
				got.Transfer.IngressFree, got.Transfer.IngressPerGB, p.Transfer.IngressFree, p.Transfer.IngressPerGB)
		}
		// Behavioural equality: same prices for probe volumes/durations.
		for _, in := range p.Compute.InstanceNames() {
			a, _ := p.Compute.Instance(in)
			b, err := got.Compute.Instance(in)
			if err != nil {
				t.Fatalf("%s: lost instance %s", name, in)
			}
			if p.Compute.HourCost(a, 90*time.Minute) != got.Compute.HourCost(b, 90*time.Minute) {
				t.Errorf("%s/%s: hour cost changed", name, in)
			}
		}
		for _, size := range []units.DataSize{units.GB, 500 * units.GB, 3 * units.TB, 60 * units.TB} {
			if p.Storage.MonthlyCost(size) != got.Storage.MonthlyCost(size) {
				t.Errorf("%s: storage cost changed at %v", name, size)
			}
			if p.Transfer.EgressCost(size) != got.Transfer.EgressCost(size) {
				t.Errorf("%s: egress cost changed at %v", name, size)
			}
		}
	}
}

func TestUnmarshalHandAuthored(t *testing.T) {
	src := `{
  "name": "handmade",
  "compute": {
    "granularity": "per-second",
    "instances": [
      {"name": "tiny", "price_per_hour": "$0.05", "ecu": 0.5, "ram": "1GB"}
    ]
  },
  "storage": {
    "mode": "slab",
    "tiers": [
      {"up_to": "1TB", "price_per_gb": "$0.20"},
      {"price_per_gb": "$0.15"}
    ]
  },
  "transfer": {
    "ingress_free": true,
    "egress": {
      "mode": "graduated",
      "tiers": [{"price_per_gb": "$0.10"}]
    }
  }
}`
	p, err := UnmarshalProvider([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "handmade" {
		t.Errorf("name = %q", p.Name)
	}
	it, err := p.Compute.Instance("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if it.PricePerHour != money.FromDollars(0.05) || it.RAM != units.GB {
		t.Errorf("instance = %+v", it)
	}
	if p.Storage.Table.Mode != Slab || len(p.Storage.Table.Tiers) != 2 {
		t.Errorf("storage = %+v", p.Storage.Table)
	}
	if got := p.Storage.MonthlyCost(2 * units.TB); got != money.FromDollars(0.15).MulFloat(2048) {
		t.Errorf("slab cost = %v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"garbage", "{", "parse provider"},
		{"bad granularity", `{"name":"x","compute":{"granularity":"fortnightly","instances":[{"name":"a","price_per_hour":"$1","ecu":1}]},"storage":{"tiers":[{"price_per_gb":"$1"}]},"transfer":{"egress":{"tiers":[{"price_per_gb":"$1"}]}}}`, "granularity"},
		{"bad price", `{"name":"x","compute":{"instances":[{"name":"a","price_per_hour":"oops","ecu":1}]},"storage":{"tiers":[{"price_per_gb":"$1"}]},"transfer":{"egress":{"tiers":[{"price_per_gb":"$1"}]}}}`, "instance a"},
		{"bad size", `{"name":"x","compute":{"instances":[{"name":"a","price_per_hour":"$1","ecu":1,"ram":"huge"}]},"storage":{"tiers":[{"price_per_gb":"$1"}]},"transfer":{"egress":{"tiers":[{"price_per_gb":"$1"}]}}}`, "instance a"},
		{"bad mode", `{"name":"x","compute":{"instances":[{"name":"a","price_per_hour":"$1","ecu":1}]},"storage":{"mode":"mystery","tiers":[{"price_per_gb":"$1"}]},"transfer":{"egress":{"tiers":[{"price_per_gb":"$1"}]}}}`, "tier mode"},
		{"invalid provider", `{"name":"","compute":{"instances":[{"name":"a","price_per_hour":"$1","ecu":1}]},"storage":{"tiers":[{"price_per_gb":"$1"}]},"transfer":{"egress":{"tiers":[{"price_per_gb":"$1"}]}}}`, "no name"},
		{"bad ingress", `{"name":"x","compute":{"instances":[{"name":"a","price_per_hour":"$1","ecu":1}]},"storage":{"tiers":[{"price_per_gb":"$1"}]},"transfer":{"ingress_per_gb":"NaN","egress":{"tiers":[{"price_per_gb":"$1"}]}}}`, "ingress"},
	}
	for _, c := range cases {
		_, err := UnmarshalProvider([]byte(c.src))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	if _, err := MarshalProvider(Provider{}); err == nil {
		t.Error("invalid provider marshalled")
	}
}

func TestSaveLoadProviderFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aws.json")
	data, err := MarshalProvider(AWS2012())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProviderFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "aws-2012" {
		t.Errorf("loaded name = %q", p.Name)
	}
	if _, err := LoadProviderFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}
