package main

// workloads.go defines the six named workloads. Each is built from the
// seed alone; BENCHMARK.json and README.md carry the same names and
// reasons (TestBenchmarkJSONMatches keeps them in step).

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/schema"
	wl "vmcloud/internal/workload"
)

// workload is one traffic mix: what to send during set-up and the i-th
// measured request as a pure function of i.
type workload struct {
	// daemonArgs are extra mvcloudd flags. inProcess workloads have no
	// daemon at all (search-large: the wire format cannot name a
	// synthetic schema).
	daemonArgs []string
	inProcess  bool
	// cold workloads send a new canonical problem every time: any
	// X-Cache other than miss is an unexpected hit.
	cold bool
	// warm is sent once, serially, before the measured window.
	warm []request
	next func(i uint64) request
}

var workloadWhy = map[string]string{
	"advise-hot":     "64 warmed advise bodies, 75% byte-identical repeats + 25% re-spelled equivalents: server raw-key and canonical hit paths and net/http do all the work, the solver none",
	"advise-cold":    "every request a new advise problem, mv1:mv2:mv3:pareto 1:1:2:2 on the 16-cuboid lattice: p50 sits in core build+encode (mv3/pareto), p90 in the mv2 MinCostCover DP",
	"compare-cold":   "every request a new 2 providers x fleets {3,5} compare with budget+limit and the 8-step break-even sweep: KernelSession.BudgetOutcome and compare fan-out dominate",
	"mixed-fleet":    "advise:compare:sweep 8:1:1 over a fixed 320+40+40 population (larger than the 256-entry cache), Zipf popularity, 4 tenants: LRU reads, writes and evictions beside all three solvers",
	"cluster3-mixed": "the mixed-fleet request sequence against mvcloudd -cluster 3: ring lookup, forward hop and hedging; the row-by-row difference is cluster mode's trial evidence",
	"search-large":   "no daemon: cold core.New + advise + JSON with the search solver on a 256-cuboid synthetic lattice, 40 queries, 48 candidates: search, IncrementalEvaluator, lattice and views dominate",
}

// mixedByDesign names the workloads whose tail quantile is allowed to
// sit between latency modes: they are mixtures of hits, cheap solves and
// grid solves on purpose, and the composition of the band is printed.
var mixedByDesign = map[string]bool{"mixed-fleet": true, "cluster3-mixed": true}

// workloadNames is the canonical order (also BENCHMARK.json's).
var workloadNames = []string{"advise-hot", "advise-cold", "compare-cold", "mixed-fleet", "cluster3-mixed", "search-large"}

// How many problem shapes a cold workload cycles through; each use
// perturbs fact_rows, so no two requests share a canonical key. The
// counts are large so that a quantile describes the generator's
// distribution rather than the handful of shapes one seed happened to
// draw: seeds change which problems are asked, not how hard they are on
// average.
const (
	adviseColdFamilies  = 512
	compareColdFamilies = 256
)

// warmBase is where a cold workload's warm-up problems sit in the index
// space: far above any index a measured window reaches.
const warmBase = 1 << 30

// bump is the fact_rows perturbation of the i-th problem of a cold
// workload: +i for a measured one, −1−k for the k-th warm-up one, so the
// two never collide and a warm-up problem is as representative of its
// family as a measured one.
func bump(i uint64) int64 {
	if i >= warmBase {
		return -1 - int64(i-warmBase)
	}
	return int64(i)
}

func buildWorkload(name string, seed int64) (*workload, error) {
	// Every workload draws from its own stream of the seed, except that
	// cluster3-mixed shares mixed-fleet's on purpose.
	stream := name
	if name == "cluster3-mixed" {
		stream = "mixed-fleet"
	}
	var h int64
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + h))
	w := &workload{}
	var err error
	switch name {
	case "advise-hot":
		err = w.buildAdviseHot(rng, seed)
	case "advise-cold":
		err = w.buildAdviseCold(rng, seed)
	case "compare-cold":
		err = w.buildCompareCold(rng, seed)
	case "mixed-fleet":
		err = w.buildMixed(rng)
	case "cluster3-mixed":
		w.daemonArgs = []string{"-cluster", "3"}
		err = w.buildMixed(rng)
	case "search-large":
		err = w.buildSearchLarge(rng, seed)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}

const hotPopulation = 64

func (w *workload) buildAdviseHot(rng *rand.Rand, seed int64) error {
	fams, err := drawFamilies(rng, hotPopulation, false)
	if err != nil {
		return err
	}
	fields := make([][]field, len(fams))
	for i, f := range fams {
		scn := adviseScenarios[i%len(adviseScenarios)]
		fields[i] = f.adviseFields(scn, 0, newSplitmix(seed, 1, uint64(i)))
		w.warm = append(w.warm, request{id: i, endpoint: "advise", label: scn, body: spell(fields[i])})
	}
	w.next = func(i uint64) request {
		r := newSplitmix(seed, 2, i)
		req := w.warm[r.next()%hotPopulation]
		if r.float() < 0.25 {
			req.body = respell(fields[req.id], r)
			req.respelled = true
		}
		return req
	}
	return nil
}

func (w *workload) buildAdviseCold(rng *rand.Rand, seed int64) error {
	fams, err := drawFamilies(rng, adviseColdFamilies, false)
	if err != nil {
		return err
	}
	w.cold = true
	// mv1:mv2:mv3:pareto = 1:1:2:2. With non-degenerate parameters both
	// DP scenarios are slow (mv2's MinCostCover slowest) and mv3/pareto
	// are cheap; at 1:1:1:1 the median would sit exactly on the cliff
	// between the two modes. Two thirds cheap puts p50 inside the cheap
	// mode (core build + encode) and p90 inside the mv2 DP (the top sixth).
	mix := [...]string{"mv1", "mv2", "mv3", "pareto", "mv3", "pareto"}
	gen := func(i uint64) request {
		scn := mix[i%uint64(len(mix))]
		f := fams[(i/uint64(len(mix)))%adviseColdFamilies]
		return request{id: int(i), endpoint: "advise", label: scn,
			body: spell(f.adviseFields(scn, bump(i), newSplitmix(seed, 3, i)))}
	}
	for i := uint64(0); i < 64; i++ {
		w.warm = append(w.warm, gen(warmBase+i))
	}
	w.next = gen
	return nil
}

func (w *workload) buildCompareCold(rng *rand.Rand, seed int64) error {
	fams, err := drawFamilies(rng, compareColdFamilies, true)
	if err != nil {
		return err
	}
	w.cold = true
	gen := func(i uint64) request {
		f := fams[i%compareColdFamilies]
		return request{id: int(i), endpoint: "compare", label: "compare",
			body: spell(f.compareFields(bump(i), newSplitmix(seed, 4, i), true))}
	}
	for i := uint64(0); i < 4; i++ {
		w.warm = append(w.warm, gen(warmBase+i))
	}
	w.next = gen
	return nil
}

// The mixed population: larger than the daemon's default 256-entry
// response cache, so the hit ratio is set by LRU dynamics.
const (
	mixedAdvise  = 320
	mixedCompare = 40
	mixedSweep   = 40
	mixedTenants = 4
	// mixedSequence is the length of the precomputed popularity
	// sequence; it wraps, which is harmless on a fixed population.
	mixedSequence = 1 << 15
)

func (w *workload) buildMixed(rng *rand.Rand) error {
	pop := make([]request, 0, mixedAdvise+mixedCompare+mixedSweep)
	add := func(endpoint, label string, fs []field) {
		id := len(pop)
		pop = append(pop, request{id: id, endpoint: endpoint, label: label,
			account: "tenant-" + strconv.Itoa(id/4%mixedTenants), body: spell(fs)})
	}
	fams, err := drawFamilies(rng, mixedAdvise, false)
	if err != nil {
		return err
	}
	r := &splitmix{s: uint64(rng.Int63())}
	for i, f := range fams {
		scn := adviseScenarios[i%len(adviseScenarios)]
		add("advise", scn, f.adviseFields(scn, 0, r))
	}
	grids, err := drawFamilies(rng, mixedCompare+mixedSweep, true)
	if err != nil {
		return err
	}
	// The fleet's compares leave the break-even sweep off: with it one
	// compare miss is ~100 ms on both cores against a 0.1 ms hit, two
	// dozen such bodies decide the whole window, and throughput moves
	// ±20% between identical runs. Without it a compare miss (~30 ms) is
	// the same order as a sweep miss, and compare-cold owns the sweep.
	for _, f := range grids[:mixedCompare] {
		add("compare", "compare", f.compareFields(0, r, false))
	}
	for _, f := range grids[mixedCompare:] {
		add("sweep", "sweep", f.sweepFields(0, r))
	}
	// advise:compare:sweep = 8:1:1 by request count, Zipf within each.
	// Popularity rank is position in the population, not a seeded
	// shuffle: the id sequence — and with it the LRU's hit/miss pattern
	// — is the same for every seed; the seed decides what each id asks.
	weights := zipfWeights(mixedAdvise, 1.0, 0.8)
	weights = append(weights, zipfWeights(mixedCompare, 1.0, 0.1)...)
	weights = append(weights, zipfWeights(mixedSweep, 1.0, 0.1)...)
	seq := zipfSequence(weights, mixedSequence)
	w.warm = pop
	w.next = func(i uint64) request { return pop[seq[i%mixedSequence]] }
	return nil
}

// searchOp is one search-large operation: a cold facade advise on the
// synthetic lattice. It rides in request.search because the wire format
// cannot carry it.
type searchOp struct {
	scenario string
	factRows int64
	w        wl.Workload
	seed     int64
	budget   money.Money
	limit    time.Duration
	alpha    float64
}

const (
	searchFamilies   = 8
	searchQueries    = 40
	searchCandidates = 48
)

var searchScenarios = [...]string{"mv1", "mv2", "mv3"}

func (w *workload) buildSearchLarge(rng *rand.Rand, seed int64) error {
	w.inProcess, w.cold = true, true
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		return err
	}
	type sfam struct {
		rows        int64
		w           wl.Workload
		baseT, allT time.Duration
		baseC, allC money.Money
	}
	fams := make([]sfam, searchFamilies)
	for i := range fams {
		f := &fams[i]
		f.rows = 200_000_000 + rng.Int63n(1_800_000_000)
		l, err := lattice.New(sch, f.rows)
		if err != nil {
			return err
		}
		// Query points do not depend on fact_rows, so the workload is
		// drawn once per family and reused as rows are perturbed.
		f.w, err = wl.Random(l, searchQueries, 8, rng.Int63())
		if err != nil {
			return err
		}
		adv, err := newSearchAdvisor(sch, &searchOp{factRows: f.rows, w: f.w})
		if err != nil {
			return err
		}
		f.baseT, f.allT, f.baseC, f.allC, err = baselineAndAll(adv)
		if err != nil {
			return err
		}
	}
	gen := func(i uint64) request {
		f := fams[(i/3)%searchFamilies]
		r := newSplitmix(seed, 5, i)
		op := &searchOp{scenario: searchScenarios[i%3], factRows: f.rows + bump(i), w: f.w, seed: int64(i)}
		lo, hi := f.baseC.Dollars(), f.allC.Dollars()
		if hi < lo {
			lo, hi = hi, lo
		}
		// On the big lattice the all-views bill may sit on either side
		// of the baseline; a budget a little above the cheaper of the
		// two leaves the search a real feasible region to explore.
		op.budget = money.FromDollars(r.between(lo, hi, 0.3, 0.9))
		op.limit = time.Duration(r.between(float64(f.allT), float64(f.baseT), 0.15, 0.85))
		op.alpha = r.between(0, 1, 0.3, 0.9)
		return request{id: int(i), endpoint: "facade", label: op.scenario, search: op}
	}
	for i := uint64(0); i < 3; i++ {
		w.warm = append(w.warm, gen(warmBase+i))
	}
	w.next = gen
	return nil
}
