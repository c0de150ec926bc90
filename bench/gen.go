package main

// gen.go is the benchmark's own request generator. It deliberately does
// not import internal/loadgen: the yardstick must not move when the load
// harness does. Everything here is a pure function of the seed, so the
// daemon only ever sees generated bodies.
//
// A generated problem draws its scenario parameter from the problem's
// own oracle numbers (optimizer.Evaluator.Evaluate of no views and of
// every candidate view): an mv1 budget lies between the no-view bill and
// the all-views bill, an mv2 limit between the all-views time and the
// no-view time. Problems where views pay for themselves are rejected,
// because there the knapsack DP never runs and every answer is "take
// everything" — the degenerate solves this benchmark exists to avoid.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/views"
)

// request is one generated HTTP request.
type request struct {
	// id identifies the canonical problem within its workload: requests
	// sharing an id must receive byte-identical responses.
	id       int
	endpoint string // advise, compare or sweep
	label    string // mv1, mv2, mv3, pareto, compare or sweep
	account  string // X-Account tenant namespace; "" for the default
	body     []byte
	// respelled marks a body that re-spells an earlier problem (key
	// order, whitespace, defaults written out): it takes the server's
	// decode+Normalize path instead of the raw-key fast path.
	respelled bool
	// search carries a search-large operation (no wire form); nil on
	// every daemon workload.
	search *searchOp
}

// field is one JSON member of a request body; val is raw JSON.
type field struct{ key, val string }

// spell renders the fields in the given order without whitespace — the
// spelling the population is warmed with.
func spell(fs []field) []byte {
	b := make([]byte, 0, 256)
	b = append(b, '{')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f.key)
		b = append(b, ':')
		b = append(b, f.val...)
	}
	return append(b, '}')
}

// adviseDefaults are ConfigJSON defaults a client may write out without
// changing the canonical problem.
var adviseDefaults = []field{
	{"instance_type", `"small"`},
	{"candidate_budget", "8"},
	{"maintenance_runs", "4"},
	{"update_ratio", "0.2"},
	{"maintenance_policy", `"immediate"`},
	{"job_overhead", `"2m"`},
	{"solver", `"knapsack"`},
}

// respell renders an equivalent but byte-different body: members
// shuffled, random whitespace, and a random subset of defaults written
// out. r decides everything, so the same r state gives the same bytes;
// member order and padding together carry far more than 64 bits, so two
// respellings of one problem practically never collide on the raw key.
func respell(fs []field, r *splitmix) []byte {
	all := append([]field(nil), fs...)
	for _, d := range adviseDefaults {
		if r.float() < 0.5 {
			all = append(all, d)
		}
	}
	for i := len(all) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		all[i], all[j] = all[j], all[i]
	}
	pad := func(b []byte) []byte {
		for n := r.next() % 3; n > 0; n-- {
			b = append(b, ' ')
		}
		return b
	}
	b := make([]byte, 0, 384)
	b = append(b, '{')
	b = append(b, '\n')
	for i, f := range all {
		if i > 0 {
			b = append(b, ',')
		}
		b = pad(b)
		b = strconv.AppendQuote(b, f.key)
		b = pad(b)
		b = append(b, ':')
		b = pad(b)
		b = append(b, f.val...)
	}
	b = pad(b)
	return append(b, '}', '\n')
}

// splitmix is a tiny counter-based generator: per-request randomness is
// a hash of (seed, request index), so the i-th request is a pure
// function of the seed without seeding a math/rand source per request.
type splitmix struct{ s uint64 }

func newSplitmix(seed int64, stream, i uint64) *splitmix {
	r := &splitmix{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03 ^ i*0x8CB92BA72F3D8DD7}
	r.next()
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between draws uniformly from [lo + a·(hi−lo), lo + b·(hi−lo)].
func (r *splitmix) between(lo, hi, a, b float64) float64 {
	return lo + (a+(b-a)*r.float())*(hi-lo)
}

// family is one advisory problem shape on the wire format's sales
// schema, with the oracle numbers its scenario parameters are drawn
// from.
type family struct {
	provider  string
	instances int
	factRows  int64
	queries   int
	frequency int
	months    int
	// Second provider of a compare/sweep grid (the grid is
	// {provider, provider2} × fleets {3,5}).
	provider2 string

	baseT, allT time.Duration
	baseC, allC money.Money
	// gridLift raises a grid family's budget interval by how far the
	// dearest cell's no-view bill exceeds the reference cell's.
	gridLift money.Money
}

// oracleNumbers prices the no-view baseline and the all-candidates
// selection of a wire config with the exact evaluator.
func oracleNumbers(cj core.ConfigJSON) (baseT, allT time.Duration, baseC, allC money.Money, err error) {
	cfg, err := cj.Config()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	adv, err := core.New(cfg)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return baselineAndAll(adv)
}

func baselineAndAll(adv *core.Advisor) (baseT, allT time.Duration, baseC, allC money.Money, err error) {
	baseT, bb, err := adv.Ev.Evaluate(nil)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	allT, ab, err := adv.Ev.Evaluate(views.Points(adv.Candidates))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return baseT, allT, bb.Total(), ab.Total(), nil
}

func (f family) config() core.ConfigJSON {
	return core.ConfigJSON{
		Provider: f.provider, Instances: f.instances, FactRows: f.factRows,
		Queries: f.queries, Frequency: f.frequency, Months: float64(f.months),
	}
}

// minViewsCost is how much dearer than the baseline the all-views bill
// must be for a problem shape to be kept. Thirty cents is a real budget
// interval, and it is also where the dense knapsack's cost levels off:
// below it the DP table is sized by the slack in micro-dollars and a
// solve takes microseconds, above it every solve fills the full table —
// so problem cost is homogeneous and a quantile does not depend on how
// many small-slack shapes a seed happened to draw.
const minViewsCost = 30 * money.Cent

// drawFamily samples problem shapes until one is non-degenerate: views
// cost money (so mv1 has a real budget interval) and save time (so mv2
// has a real limit interval). grid families fix the fleet at 5, the
// reference cell of the {3,5} grid.
func drawFamily(rng *rand.Rand, grid bool) (family, error) {
	names := pricing.ProviderNames()
	for tries := 0; tries < 10000; tries++ {
		f := family{
			provider:  names[rng.Intn(len(names))],
			instances: 2 + rng.Intn(7),
			// Log-uniform over 5M..2G rows: dataset size spans the
			// storage tiers and the hour-rounding regimes.
			factRows:  int64(5e6 * math.Exp(rng.Float64()*math.Log(400))),
			queries:   3 + rng.Intn(8),
			frequency: 1 + rng.Intn(40),
			months:    []int{1, 1, 2, 3, 6}[rng.Intn(5)],
		}
		if grid {
			f.instances = 5
			f.provider2 = names[(sort.SearchStrings(names, f.provider)+1+rng.Intn(len(names)-1))%len(names)]
		}
		var err error
		f.baseT, f.allT, f.baseC, f.allC, err = oracleNumbers(f.config())
		if err != nil {
			return family{}, err
		}
		if f.allC <= f.baseC.Add(minViewsCost) || f.allT >= f.baseT-time.Minute {
			continue
		}
		if grid {
			// The budget must cover the no-view bill in every cell of
			// the grid, or mv1 is infeasible there before it starts.
			for _, prov := range []string{f.provider, f.provider2} {
				for _, fleet := range []int{3, 5} {
					cell := f.config()
					cell.Provider, cell.Instances = prov, fleet
					_, _, base, _, err := oracleNumbers(cell)
					if err != nil {
						return family{}, err
					}
					f.gridLift = money.Max(f.gridLift, base.Sub(f.baseC))
				}
			}
		}
		return f, nil
	}
	return family{}, fmt.Errorf("gen: no non-degenerate problem in 10000 draws")
}

func drawFamilies(rng *rand.Rand, n int, grid bool) ([]family, error) {
	out := make([]family, n)
	for i := range out {
		f, err := drawFamily(rng, grid)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func moneyJSON(m money.Money) string { return strconv.Quote(m.String()) }

// limitJSON renders a duration rounded to whole seconds, as a client
// would type it.
func limitJSON(d time.Duration) string { return strconv.Quote(d.Round(time.Second).String()) }

// budget draws an mv1 budget from the upper part of the family's
// [no-view bill, all-views bill] interval, where hour rounding still
// leaves room for at least one view most of the time.
func (f family) budget(r *splitmix) money.Money {
	return money.FromDollars(r.between(f.baseC.Dollars(), f.allC.Dollars(), 0.5, 1.0)).Add(f.gridLift)
}

func (f family) limit(r *splitmix) time.Duration {
	return time.Duration(r.between(float64(f.allT), float64(f.baseT), 0.15, 0.85))
}

// shapeFields are the problem-shape members shared by every endpoint;
// bump perturbs fact_rows so that one family yields many distinct
// canonical problems (distinct lattices, not just distinct parameters).
func (f family) shapeFields(bump int64) []field {
	return []field{
		{"fact_rows", strconv.FormatInt(f.factRows+bump, 10)},
		{"queries", strconv.Itoa(f.queries)},
		{"frequency", strconv.Itoa(f.frequency)},
		{"months", strconv.Itoa(f.months)},
	}
}

// alphaJSON draws a high mv3 weight on time: in the views-cost-money
// regime a view is taken only when its hours outweigh its dollars, so a
// balanced α would mostly answer "materialize nothing".
func alphaJSON(r *splitmix) string {
	return strconv.FormatFloat(math.Round(r.between(0, 1, 0.6, 0.99)*1e4)/1e4, 'g', -1, 64)
}

var adviseScenarios = [...]string{"mv1", "mv2", "mv3", "pareto"}

// adviseFields builds one advise problem.
func (f family) adviseFields(scenario string, bump int64, r *splitmix) []field {
	fs := []field{{"scenario", strconv.Quote(scenario)}}
	switch scenario {
	case "mv1":
		fs = append(fs, field{"budget", moneyJSON(f.budget(r))})
	case "mv2":
		fs = append(fs, field{"limit", limitJSON(f.limit(r))})
	case "mv3":
		fs = append(fs, field{"alpha", alphaJSON(r)})
	case "pareto":
		fs = append(fs, field{"steps", strconv.Itoa(5 + int(r.next()%9))})
	}
	fs = append(fs,
		field{"provider", strconv.Quote(f.provider)},
		field{"instances", strconv.Itoa(f.instances)})
	return append(fs, f.shapeFields(bump)...)
}

func (f family) gridFields() []field {
	a, b := f.provider, f.provider2
	if a > b {
		a, b = b, a
	}
	return []field{
		{"providers", "[" + strconv.Quote(a) + "," + strconv.Quote(b) + "]"},
		{"fleet_sizes", "[3,5]"},
	}
}

// compareFields builds ROADMAP's load-compare-2x2 shape: 2 providers ×
// fleets {3,5}, budget + limit → mv1/mv2/mv3, with the default 8-step
// break-even sweep or (breakEven false) with the sweep switched off.
func (f family) compareFields(bump int64, r *splitmix, breakEven bool) []field {
	fs := []field{
		{"budget", moneyJSON(f.budget(r))},
		{"limit", limitJSON(f.limit(r))},
		{"alpha", alphaJSON(r)},
	}
	if !breakEven {
		fs = append(fs, field{"break_even_steps", "-1"})
	}
	fs = append(fs, f.gridFields()...)
	return append(fs, f.shapeFields(bump)...)
}

// sweepFields builds an mv1 tariff-grid sweep over the same 2×2 grid.
func (f family) sweepFields(bump int64, r *splitmix) []field {
	fs := []field{{"budget", moneyJSON(f.budget(r))}}
	fs = append(fs, f.gridFields()...)
	return append(fs, f.shapeFields(bump)...)
}

// zipfSequence returns a deterministic length-n sequence over items
// whose long-run frequencies follow weights exactly (stride
// scheduling): popularity is Zipf-shaped, but the number of references
// to each item in any window is fixed rather than Poisson, so run
// length and seed do not move the hit ratio — LRU dynamics do.
func zipfSequence(weights []float64, n int) []uint16 {
	pass := make([]float64, len(weights))
	for i, w := range weights {
		// Start each item half a period in, so rare items are not all
		// front-loaded.
		pass[i] = 0.5 / w
	}
	out := make([]uint16, n)
	for k := range out {
		best := 0
		for i := range pass {
			if pass[i] < pass[best] {
				best = i
			}
		}
		out[k] = uint16(best)
		pass[best] += 1 / weights[best]
	}
	return out
}

// zipfWeights gives n items a 1/rank^s popularity summing to share;
// item i has rank i+1.
func zipfWeights(n int, s, share float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] *= share / sum
	}
	return w
}

// pointsOf converts wire coordinates back to lattice points.
func pointsOf(raw [][]int) []lattice.Point {
	out := make([]lattice.Point, len(raw))
	for i, p := range raw {
		out[i] = lattice.Point(p)
	}
	return out
}
