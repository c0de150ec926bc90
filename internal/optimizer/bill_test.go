package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/simtime"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
)

// sameOutcome reports whether two (time, bill, error) results agree bit
// for bit, error texts included.
func sameOutcome(gotT time.Duration, gotB costmodel.Bill, gotErr error, wantT time.Duration, wantB costmodel.Bill, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		return gotErr.Error() == wantErr.Error()
	}
	return gotT == wantT && gotB == wantB
}

// TestCompiledBillMatchesPlanBill holds the served bill to the oracle.
// For every catalog tariff × fleet {1, 3, 5} × period {0, 0.5, 1, 6, 12}
// months × maintenance policy, the compiled bill of a set of aggregates
// equals Plan.Bill of the plan carrying them, bit for bit, errors
// included; and a short engine walk's Score equals Evaluate.
//
// The aggregates include, for each compute term with an integer form,
// durations billed at exactly its bound and one hour past it, so both
// sides of the integer/float hand-off are priced. A catalog price puts
// the bound past any time.Duration, so each tariff is also priced with
// its instance at $10M and one micro-dollar an hour, which brings it
// within reach; the odd price makes the float path's product one hour
// past the bound inexact, so an integer form kept past it would show.
// They also include view bytes that overflow the stored volume, dataset
// plus views, which both sides must reject with one error.
func TestCompiledBillMatchesPlanBill(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const maxHours = math.MaxInt64 / int64(time.Hour)
	bounds := 0 // integer-form bounds priced on both sides
	for _, policy := range []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance} {
		seedEv, cands := incrementalFixture(t, rng, policy)
		ds := seedEv.Base.DatasetSize
		for _, name := range pricing.ProviderNames() {
			for _, pricey := range []bool{false, true} {
				prov, err := pricing.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				if pricey {
					small := prov.Compute.Instances["small"]
					small.PricePerHour = money.FromDollars(10_000_000) + 1
					prov.Compute.Instances["small"] = small
				}
				for _, fleet := range []int{1, 3, 5} {
					cl, err := cluster.New(prov, "small", fleet)
					if err != nil {
						t.Fatal(err)
					}
					est := *seedEv.Est
					est.Cl = cl
					for _, months := range []float64{0, 0.5, 1, 6, 12} {
						ev, err := NewEvaluator(&est, seedEv.W, costmodel.Plan{
							Cluster:       cl,
							Months:        months,
							DatasetSize:   ds,
							MonthlyEgress: seedEv.Base.MonthlyEgress,
						})
						if err != nil {
							t.Fatal(err)
						}
						sess, err := NewSession(ev, cands)
						if err != nil {
							t.Fatal(err)
						}
						inc := sess.Engine()
						where := fmt.Sprintf("%s pricey=%v fleet %d months %g %v", name, pricey, fleet, months, policy)
						check := func(proc, maint, mat time.Duration, size units.DataSize) {
							t.Helper()
							gotT, gotB, gotErr := inc.billing.price(proc, maint, mat, size)
							wantB, wantErr := ev.Base.WithViews(size, proc, maint, mat).Bill()
							if !sameOutcome(gotT, gotB, gotErr, proc, wantB, wantErr) {
								t.Fatalf("%s: aggregates (%v, %v, %v, %v):\ncompiled (%v, %+v, %v)\nPlan.Bill (%v, %+v, %v)",
									where, proc, maint, mat, size, gotT, gotB, gotErr, proc, wantB, wantErr)
							}
						}
						hoursOf := func(h int64) []time.Duration {
							if h < 1 || h > maxHours {
								return nil
							}
							// h billed hours, reached exactly and from just above h−1.
							return []time.Duration{time.Duration(h) * time.Hour, time.Duration(h-1)*time.Hour + 1}
						}
						for _, tm := range []*computeTerm{&inc.billing.monthly, &inc.billing.once} {
							if tm.maxHours < 0 {
								continue
							}
							if tm.maxHours < maxHours {
								bounds++
							}
							for _, hrs := range [][]time.Duration{hoursOf(tm.maxHours), hoursOf(tm.maxHours + 1)} {
								for _, d := range hrs {
									if tm.scaled {
										check(d, 0, 0, units.GB)
										check(time.Hour, d, 0, 2*units.GB)
									} else {
										check(0, 0, d, 3*units.GB)
									}
								}
							}
						}
						check(0, 0, 0, 0)
						check(math.MaxInt64, math.MaxInt64, math.MaxInt64, units.TB)
						check(-1, 0, 0, 0)
						check(0, 0, 0, -1)
						check(0, 0, 0, math.MaxInt64-1) // dataset + views overflows
						for k := 0; k < 20; k++ {
							check(time.Duration(rng.Int63n(int64(5000*time.Hour))), time.Duration(rng.Int63n(int64(500*time.Hour))),
								time.Duration(rng.Int63n(int64(50*time.Hour))), units.DataSize(rng.Int63n(int64(4*units.TB))))
						}
						// The engine prices its own states through the compiled
						// bill: a short walk, held to Evaluate.
						sel := make([]bool, len(cands))
						for step := 0; step < 6; step++ {
							i := rng.Intn(len(cands))
							toggle(inc, i)
							sel[i] = !sel[i]
							gotT, gotB, gotErr := inc.Score()
							wantT, wantB, wantErr := ev.Evaluate(selectedPoints(cands, sel))
							if !sameOutcome(gotT, gotB, gotErr, wantT, wantB, wantErr) {
								t.Fatalf("%s step %d:\nScore    (%v, %+v, %v)\nEvaluate (%v, %+v, %v)",
									where, step, gotT, gotB, gotErr, wantT, wantB, wantErr)
							}
						}
					}
				}
			}
		}
	}
	if bounds == 0 {
		t.Fatal("no integer-form bound was within a time.Duration: the hand-off went unpriced")
	}
}

// TestComputeTermIntegerForm pins which tariffs take the integer form:
// hourly billing with a whole number of months (the one-off term needs
// hourly billing only), and nothing else.
func TestComputeTermIntegerForm(t *testing.T) {
	cases := []struct {
		gran          units.BillingGranularity
		months        float64
		monthly, once bool
	}{
		{units.BillPerHour, 1, true, true},
		{units.BillPerHour, 12, true, true},
		{units.BillPerHour, 0, true, true},
		{units.BillPerHour, 0.5, false, true},
		{units.BillPerHour, math.NaN(), false, true},
		{units.BillPerMinute, 1, false, false},
		{units.BillPerSecond, 1, false, false},
	}
	for _, c := range cases {
		b := compiledBill{pph: money.FromDollars(0.12), gran: c.gran, fleet: 5, months: c.months}
		if got := b.term(true).maxHours >= 0; got != c.monthly {
			t.Errorf("%v, %g months: monthly integer form %v, want %v", c.gran, c.months, got, c.monthly)
		}
		if got := b.term(false).maxHours >= 0; got != c.once {
			t.Errorf("%v, %g months: one-off integer form %v, want %v", c.gran, c.months, got, c.once)
		}
	}
	// The bound: h·coef stays at most 2⁵³ − 1.
	b := compiledBill{pph: money.FromDollars(0.12), gran: units.BillPerHour, fleet: 5, months: 12}
	tm := b.term(true)
	if tm.coef != 120_000*5*12 || tm.maxHours != maxExact/tm.coef {
		t.Errorf("term %+v, want coef %d and bound %d", tm, 120_000*5*12, maxExact/(120_000*5*12))
	}
}

// TestHoldMatchesCostFor holds the storage term's shortcut — one month
// held returned without the multiply by 1 — to StorageTariff.CostFor,
// which always multiplies. The tables are every catalog storage table in
// both tier modes, and a pricey two-tier table whose charge crosses 2⁵²
// micro-dollars, where the multiply stops being the identity.
func TestHoldMatchesCostFor(t *testing.T) {
	tables := []pricing.TierTable{{Mode: pricing.Graduated, Tiers: []pricing.Tier{
		{UpTo: 999*units.GB + 12345, PricePerGB: money.FromDollars(1_000_000) + 1},
		{PricePerGB: money.FromDollars(3_000_000) + 3},
	}}}
	for _, name := range pricing.ProviderNames() {
		prov, err := pricing.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, prov.Storage.Table)
	}
	for _, table := range tables {
		for _, mode := range []pricing.TierMode{pricing.Graduated, pricing.Slab} {
			table.Mode = mode
			tables = append(tables, table)
		}
	}
	sizes := []units.DataSize{-1, 0, 1, units.GB - 1, units.GB, units.TB, units.TB + 1, 3 * units.TB, 1 << 50, 1 << 62, math.MaxInt64}
	for _, table := range tables {
		for _, tier := range table.Tiers {
			sizes = append(sizes, tier.UpTo-1, tier.UpTo, tier.UpTo+1)
		}
		c := compiledBill{storage: table}
		tariff := pricing.StorageTariff{Table: table}
		for _, size := range sizes {
			for _, months := range []float64{-1, 0, 0.5, 1, math.Nextafter(1, 2), 2, 12} {
				if got, want := c.hold(size, simtime.Months(months)), tariff.CostFor(size, months); got != want {
					t.Fatalf("%v table %+v: %v held %g months = %d, want %d", table.Mode, table.Tiers, size, months, got, want)
				}
			}
		}
	}
}
