// Package vmcloud is a Go reproduction of "Cost Models for View
// Materialization in the Cloud" (Nguyen, d'Orazio, Bimonte, Darmont —
// EDBT/ICDT DanaC workshop, 2012).
//
// It provides monetary cost models for running analytical workloads on
// pay-as-you-go clouds (compute instance-hours, tiered storage, tiered
// egress) and a materialized-view advisor that solves the paper's three
// optimization scenarios over a star-schema cuboid lattice:
//
//   - MV1: minimize workload response time under a budget limit,
//   - MV2: minimize the monetary bill under a response-time limit,
//   - MV3: minimize the weighted tradeoff α·T + (1−α)·C,
//
// each solved as a 0/1 knapsack by dynamic programming over candidate
// views produced by a greedy benefit-per-space pre-selection — or, for
// lattices too large for the linearization to stay honest, by seedable
// metaheuristic search (hill climbing + simulated annealing) against
// the exact cost evaluator (AdvisorConfig.Solver = SolverSearch).
//
// Quick start:
//
//	l, _ := vmcloud.NewLattice(vmcloud.SalesSchema(), 200_000_000)
//	w, _ := vmcloud.SalesWorkload(l, 10)
//	adv, _ := vmcloud.NewAdvisor(vmcloud.AdvisorConfig{Workload: w})
//	rec, _ := adv.AdviseBudget(vmcloud.Dollars(5))
//	fmt.Println(rec.Render())
//
// The facade re-exports the supported surface of the internal packages;
// see the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package vmcloud

import (
	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/schema"
	"vmcloud/internal/units"
	"vmcloud/internal/workload"
)

// Money is an exact currency amount in micro-dollars.
type Money = money.Money

// Dollars converts a float dollar amount to Money.
//
//mvlint:allow moneyfloat -- public facade input boundary: callers hand us float dollars by design
func Dollars(d float64) Money { return money.FromDollars(d) }

// ParseMoney parses "$1.08"-style strings.
func ParseMoney(s string) (Money, error) { return money.Parse(s) }

// DataSize is a data volume in bytes; GB and TB are binary multiples.
type DataSize = units.DataSize

// Data size constants.
const (
	MB = units.MB
	GB = units.GB
	TB = units.TB
)

// Provider is a cloud service provider tariff (compute, storage, egress).
type Provider = pricing.Provider

// AWS2012 returns the tariff fixture matching the paper's Tables 2–4.
func AWS2012() Provider { return pricing.AWS2012() }

// Providers returns every built-in tariff by name.
func Providers() map[string]Provider { return pricing.Catalog() }

// Schema describes a star schema with dimension hierarchies.
type Schema = schema.Schema

// SalesSchema returns the paper's supply-chain sales schema (Table 1).
func SalesSchema() *Schema { return schema.Sales() }

// SyntheticSchema builds a deterministic star schema with dims
// dimensions and levels hierarchy levels per dimension (including ALL),
// inducing a levels^dims-cuboid lattice — the stress setting the search
// solver exists for. SyntheticSchema(4, 4) is the 256-cuboid lattice of
// the large-schema experiments.
func SyntheticSchema(dims, levels int) (*Schema, error) { return schema.Synthetic(dims, levels) }

// Lattice is the cuboid lattice of a schema.
type Lattice = lattice.Lattice

// Point identifies one cuboid (one hierarchy level per dimension).
type Point = lattice.Point

// NewLattice builds the lattice of a schema at a fact-table row count.
func NewLattice(s *Schema, factRows int64) (*Lattice, error) {
	return lattice.New(s, factRows)
}

// Workload is a set of aggregation queries with monthly frequencies.
type Workload = workload.Workload

// Query is one workload query.
type Query = workload.Query

// SalesWorkload builds the paper's n-query sales workload (n ∈ 1..10).
func SalesWorkload(l *Lattice, n int) (Workload, error) {
	return workload.Sales(l, n)
}

// RandomWorkload generates an n-query workload at uniformly random
// lattice points with frequencies in [1, maxFreq], deterministically
// from the seed — the workload generator the large-schema walkthrough
// and benchmarks use.
func RandomWorkload(l *Lattice, n, maxFreq int, seed int64) (Workload, error) {
	return workload.Random(l, n, maxFreq, seed)
}

// AdvisorConfig configures an advisory session; zero values select the
// paper's experimental defaults (AWS 2012 tariff, 5 small instances,
// ≈10 GB sales dataset, monthly billing, knapsack solver).
type AdvisorConfig = core.Config

// Solver names accepted by AdvisorConfig.Solver and
// CompareRequest.Solver: the paper's linearized knapsack DP (default),
// the exact-evaluator metaheuristic search engine, or automatic
// selection by candidate-pool size.
const (
	SolverKnapsack = core.SolverKnapsack
	SolverSearch   = core.SolverSearch
	SolverAuto     = core.SolverAuto
)

// Advisor recommends view sets under the paper's three scenarios.
type Advisor = core.Advisor

// Recommendation is a solved scenario with its exact bill.
type Recommendation = core.Recommendation

// ParetoPoint is one point of the time/cost frontier.
type ParetoPoint = core.ParetoPoint

// NewAdvisor wires an advisory session.
func NewAdvisor(cfg AdvisorConfig) (*Advisor, error) { return core.New(cfg) }

// CompareRequest describes a cross-provider comparison: the advisory
// problem (its embedded Config: AdvisorConfig{Workload: w, ...}, tariff
// fields and Schema left zero) priced on every provider × instance
// type × cluster size configuration. Zero values select the paper's
// defaults; an empty Providers list compares the full built-in catalog,
// and a nil Alpha means 0.5.
type CompareRequest = compare.Request

// Comparison is the merged cross-provider report: the cost/time matrix,
// per-scenario winners, the global Pareto frontier and the budget
// break-even sweep. ComparisonJSON (via Comparison.JSON) is its wire
// form, as served by mvcloudd's POST /v1/compare.
type Comparison = compare.Comparison

// ComparisonJSON is the wire form of a Comparison.
type ComparisonJSON = compare.ComparisonJSON

// CompareKey identifies one compared configuration.
type CompareKey = compare.Key

// Compare solves every requested configuration in key order on the
// caller's goroutine and returns the deterministic, ranked comparison.
func Compare(req CompareRequest) (*Comparison, error) { return compare.Run(req) }

// SweepRequest describes a tariff-grid sweep: a single objective (mv1,
// mv2 or mv3) re-priced across provider × instance type × fleet size
// cells over one problem, its embedded Config as in CompareRequest (a
// nil Alpha means 0.5). The grid shares one pricing-invariant structure
// (lattice, candidates, answering lists); each cell costs only a tariff
// re-bind — the structure-sharing comparison kernel.
type SweepRequest = compare.SweepRequest

// TariffSweep is the solved grid: every cell's exact recommendation and
// decomposed bill, plus the winning configuration. SweepJSON (via
// TariffSweep.JSON) is its wire form, as served by mvcloudd's POST
// /v1/sweep.
type TariffSweep = compare.Sweep

// SweepJSON is the wire form of a TariffSweep.
type SweepJSON = compare.SweepJSON

// Sweep re-prices the single-objective grid in key order on the caller's
// goroutine and returns the deterministic sweep with its winner.
func Sweep(req SweepRequest) (*TariffSweep, error) { return compare.RunSweep(req) }
