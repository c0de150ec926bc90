package compare

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
)

// randomCatalog derives a deterministic set of valid tariff variants
// from a seed: perturbed instance prices and ECUs, storage and egress
// slab rates, and billing granularities over the built-in fixtures'
// shapes.
func randomCatalog(seed int64, n int) []pricing.Provider {
	rng := rand.New(rand.NewSource(seed))
	names := pricing.ProviderNames()
	out := make([]pricing.Provider, 0, n)
	for i := 0; i < n; i++ {
		base, _ := pricing.Lookup(names[rng.Intn(len(names))])
		p := base.Clone()
		p.Name = fmt.Sprintf("rand-%d-%d", seed, i)
		for name, it := range p.Compute.Instances {
			it.PricePerHour = it.PricePerHour.MulFloat(0.25 + 1.5*rng.Float64())
			it.ECU = it.ECU * (0.5 + rng.Float64())
			p.Compute.Instances[name] = it
		}
		for j := range p.Storage.Table.Tiers {
			p.Storage.Table.Tiers[j].PricePerGB = p.Storage.Table.Tiers[j].PricePerGB.MulFloat(0.5 + rng.Float64())
		}
		for j := range p.Transfer.Egress.Tiers {
			p.Transfer.Egress.Tiers[j].PricePerGB = p.Transfer.Egress.Tiers[j].PricePerGB.MulFloat(0.5 + rng.Float64())
		}
		switch rng.Intn(3) {
		case 0:
			p.Compute.Granularity = units.BillPerHour
		case 1:
			p.Compute.Granularity = units.BillPerMinute
		case 2:
			p.Compute.Granularity = units.BillPerSecond
		}
		out = append(out, p)
	}
	return out
}

// TestKernelCompareMatchesPerConfigAdvisors is the comparison kernel's
// acceptance property: across random catalogs, both maintenance
// policies, and both solvers (knapsack and seeded search), every cell of
// compare.Run's matrix — recommendations and pareto frontiers — must be
// byte-identical (JSON) and deeply equal to what an independent
// per-config core.New advisor produces, i.e. the pre-kernel fan-out, and
// the break-even sweep must name, at every budget, the winner of those
// advisors' full MV1 solves.
func TestKernelCompareMatchesPerConfigAdvisors(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, policy := range []views.MaintenancePolicy{views.ImmediateMaintenance, views.DeferredMaintenance} {
			for _, solver := range []string{core.SolverKnapsack, core.SolverSearch} {
				t.Run(fmt.Sprintf("seed%d_policy%d_%s", seed, policy, solver), func(t *testing.T) {
					req := Request{
						Config: core.Config{
							Workload: testWorkload(t, 7), FactRows: testRows,
							MaintenancePolicy: policy, Solver: solver, Seed: seed * 101,
						},
						Providers:      randomCatalog(seed, 3),
						FleetSizes:     []int{2, 5},
						Scenarios:      []string{"mv1", "mv2", "mv3", "pareto"},
						Budget:         money.FromDollars(10 + float64(seed)*7),
						Limit:          4 * time.Hour,
						Steps:          5,
						BreakEvenSteps: 4,
					}
					comp, err := Run(req)
					if err != nil {
						t.Fatal(err)
					}
					sweep := make([][]Winner, req.BreakEvenSteps)
					for _, cfg := range comp.Configs {
						var prov pricing.Provider
						for _, p := range req.Providers {
							if p.Name == cfg.Provider {
								prov = p.Clone()
							}
						}
						// The cell's own advisor: the request's problem on
						// the cell's tariff.
						cell := req.Config
						cell.Provider, cell.InstanceType, cell.Instances = &prov, cfg.InstanceType, cfg.Instances
						adv, err := core.New(cell)
						if err != nil {
							t.Fatal(err)
						}
						for _, sr := range cfg.Results {
							var want core.Recommendation
							switch sr.Scenario {
							case "mv1":
								want, err = adv.AdviseBudget(req.Budget)
							case "mv2":
								want, err = adv.AdviseDeadline(req.Limit)
							case "mv3":
								want, err = adv.AdviseTradeoff(0.5)
							}
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(sr.Rec, want) {
								t.Errorf("%s %s: kernel cell diverged from per-config advisor:\ngot  %+v\nwant %+v",
									cfg.Key, sr.Scenario, sr.Rec, want)
								continue
							}
							// Byte-level: the wire forms must agree too.
							gj, _ := json.Marshal(sr.Rec.JSON())
							wj, _ := json.Marshal(want.JSON())
							if string(gj) != string(wj) {
								t.Errorf("%s %s: wire forms differ", cfg.Key, sr.Scenario)
							}
						}
						wantFront, err := adv.ParetoFront(req.Steps)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(cfg.Pareto, wantFront) {
							t.Errorf("%s: pareto frontier diverged", cfg.Key)
						}
						// The break-even sweep: every cell's full MV1 solve on
						// its per-config advisor at every budget.
						for bi := range sweep {
							b := sweepBudgetAt(req.Budget, bi, req.BreakEvenSteps)
							sel, err := adv.Session().SolveMV1(b)
							if err != nil {
								t.Fatal(err)
							}
							sweep[bi] = append(sweep[bi], Winner{Key: cfg.Key, Time: sel.Time, Cost: sel.Bill.Total(), Feasible: sel.Feasible})
						}
					}
					// The bounded sweep names the winner of the unbounded one
					// at every budget.
					if comp.BreakEven == nil || len(comp.BreakEven.Winners) != len(sweep) {
						t.Fatalf("break-even sweep %+v, want %d budgets", comp.BreakEven, len(sweep))
					}
					for bi, outs := range sweep {
						best := outs[0]
						for _, w := range outs[1:] {
							if w.outranks(optimizer.Budget(comp.BreakEven.Budgets[bi]), best) {
								best = w
							}
						}
						if got := comp.BreakEven.Winners[bi]; got != best.Key {
							t.Errorf("budget %v: break-even winner %s, per-config solves give %s",
								comp.BreakEven.Budgets[bi], got, best.Key)
						}
					}
				})
			}
		}
	}
}

// sweepBudgetAt reproduces normalize()'s break-even budget spacing.
func sweepBudgetAt(budget money.Money, i, steps int) money.Money {
	lo, hi := budget.DivInt(2), budget.MulInt(2)
	frac := float64(i) / float64(steps-1)
	return lo.Add(hi.Sub(lo).MulFloat(frac))
}
