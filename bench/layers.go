package main

// layers.go turns a traced run into the per-layer metrics. A traced run
// is three things: a short untraced pass against the real daemon (what
// the server's headers and the client's clock say), the single-goroutine
// in-process replay with spans (trace.go), and the fixed probes
// (probes.go). Every metric is always reported; one a workload never
// exercises reads 0.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order. README.md says which end-to-end metric each should move.
var layerMetrics = []metricDef{
	// server — header counts from the daemon pass.
	{name: "server.hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.remiss_ratio", unit: "ratio", better: "lower"},
	{name: "server.coalesced", unit: "count", better: "lower"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "server.degraded", unit: "count", better: "lower"},
	{name: "server.stale", unit: "count", better: "lower"},
	{name: "server.phase_unattributed_pct", unit: "%", better: "lower"},
	// server — the in-process replay.
	{name: "server.serve_hit_raw_us", unit: "us", better: "lower"},
	{name: "server.serve_hit_canon_us", unit: "us", better: "lower"},
	{name: "server.serve_miss_ms", unit: "ms", better: "lower"},
	{name: "server.decode_us", unit: "us", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.hit_allocs", unit: "count", better: "lower"},
	{name: "server.miss_allocs", unit: "count", better: "lower"},
	{name: "server.miss_alloc_kb", unit: "KB", better: "lower"},
	{name: "server.forward_ms", unit: "ms", better: "lower"},
	{name: "client.hit_p50_us", unit: "us", better: "lower"},
	{name: "client.hit_p95_us", unit: "us", better: "lower"},
	{name: "client.miss_p50_ms", unit: "ms", better: "lower"},
	{name: "client.miss_p95_ms", unit: "ms", better: "lower"},
	{name: "wire.overhead_us", unit: "us", better: "lower"},
	{name: "shard.owner_ns", unit: "ns", better: "lower"},
	{name: "shard.prefer_ns", unit: "ns", better: "lower"},
	{name: "shard.balance_max_share", unit: "ratio", better: "lower"},
	{name: "core.resolve_us", unit: "us", better: "lower"},
	{name: "core.shared_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.bind_us", unit: "us", better: "lower"},
	{name: "core.advise_mv1_ms", unit: "ms", better: "lower"},
	{name: "core.advise_mv2_ms", unit: "ms", better: "lower"},
	{name: "core.advise_mv3_us", unit: "us", better: "lower"},
	{name: "core.pareto_us", unit: "us", better: "lower"},
	{name: "core.encode_us", unit: "us", better: "lower"},
	{name: "core.nontrivial_ratio", unit: "ratio", better: "higher"},
	{name: "core.golden_drift", unit: "count", better: "lower"},
	{name: "compare.run_ms", unit: "ms", better: "lower"},
	{name: "compare.sweep_ms", unit: "ms", better: "lower"},
	{name: "compare.breakeven_ms", unit: "ms", better: "lower"},
	{name: "compare.breakeven_share_pct", unit: "%", better: "lower"},
	{name: "compare.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "compare.encode_ms", unit: "ms", better: "lower"},
	{name: "compare.self_ms", unit: "ms", better: "lower"},
	{name: "optimizer.kernel_us", unit: "us", better: "lower"},
	{name: "optimizer.reprice_us", unit: "us", better: "lower"},
	{name: "optimizer.solve_mv1_ms", unit: "ms", better: "lower"},
	{name: "optimizer.solve_mv2_ms", unit: "ms", better: "lower"},
	{name: "optimizer.solve_mv3_us", unit: "us", better: "lower"},
	{name: "optimizer.budget_outcome_ms", unit: "ms", better: "lower"},
	{name: "optimizer.mv1_budget_flatness", unit: "ratio", better: "higher"},
	{name: "optimizer.knapsack_cap_ratio", unit: "ratio", better: "higher"},
	{name: "optimizer.scratch_mb", unit: "MB", better: "lower"},
	{name: "optimizer.evaluate_us", unit: "us", better: "lower"},
	{name: "optimizer.exhaustive_ms", unit: "ms", better: "lower"},
	{name: "optimizer.inc_move_ns", unit: "ns", better: "lower"},
	{name: "search.solve_mv1_ms", unit: "ms", better: "lower"},
	{name: "search.solve_mv2_ms", unit: "ms", better: "lower"},
	{name: "search.solve_mv3_ms", unit: "ms", better: "lower"},
	{name: "search.evals", unit: "count", better: "lower"},
	{name: "search.cached_states", unit: "count", better: "lower"},
	{name: "search.evals_per_ms", unit: "1/ms", better: "higher"},
	{name: "search.gain_vs_knapsack_pct", unit: "%", better: "higher"},
	{name: "lattice.new_us", unit: "us", better: "lower"},
	{name: "lattice.new256_us", unit: "us", better: "lower"},
	{name: "views.candidates_us", unit: "us", better: "lower"},
	{name: "views.candidates256_ms", unit: "ms", better: "lower"},
	{name: "views.candidates", unit: "count", better: "lower"},
	{name: "obs.scrape_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_util", unit: "cores", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "bench.unexpected_hits", unit: "count", better: "lower"},
	{name: "bench.client_wait_pct", unit: "%", better: "higher"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.mixed_bands", unit: "count", better: "lower"},
	{name: "oracle.wrong_answers", unit: "count", better: "lower"},
	{name: "oracle.advice_gap_pct", unit: "%", better: "lower"},
	{name: "oracle.missed_feasible", unit: "count", better: "lower"},
	{name: "oracle.checked", unit: "count", better: "higher"},
}

// tracedRun is one workload's traced result.
type tracedRun struct {
	workload string
	seed     int64
	window   // the short daemon pass
	or       *oracle
	rp       *replay
	vals     map[string]float64
	problems []string
	path     string // where the spans were written
}

func (t *tracedRun) failed() int64 {
	return t.window.failed() + int64(t.or.wrong) + int64(len(t.rp.errs))
}

// phaseGap parses an X-Solve-Phases header ("lattice=9µs;…;total=312µs")
// into the total and the sum of the named phases.
func phaseGap(h string) (total, named time.Duration) {
	for _, kv := range strings.Split(h, ";") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			continue
		}
		if k == "total" {
			total = d
		} else {
			named += d
		}
	}
	return total, named
}

// measureTraced runs the three parts of a traced run inside roughly d:
// 30% daemon pass (at both load levels, as in an end-to-end run), 50%
// replay (untraced, then traced), and the fixed probes.
func measureTraced(name string, seed int64, d time.Duration, bin string) (*tracedRun, error) {
	t := &tracedRun{workload: name, seed: seed, vals: map[string]float64{}}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// 1. The daemon pass: tracing off, phases header on.
	r, _, err := setUp(name, seed, bin)
	if err != nil {
		return nil, err
	}
	defer r.close()
	t.problems = append(t.problems, r.warmErr...)
	for _, tg := range r.targets {
		if ht, ok := tg.(*httpTarget); ok {
			ht.debugPhases = true
		}
	}
	if t.window, err = r.measureWindow(d * 3 / 10); err != nil {
		return nil, err
	}
	lat, thr := t.lat, t.thr
	if t.vals["proc.peak_rss_mb"], err = r.peakRSS(); err != nil {
		return nil, err
	}
	if t.ok() == 0 {
		return nil, fmt.Errorf("workload %s: no request succeeded: %v", name, t.errs())
	}
	t.or = runOracle(r.w, r.loader.kept())
	t.problems = append(t.problems, t.errs()...)
	t.problems = append(t.problems, t.or.notes...)

	v := t.vals
	// Header counts are those of the all-clients half: coalescing and
	// shedding need concurrency to happen at all.
	v["server.hit_ratio"] = ratio(thr.outcomes["hit"], thr.ok)
	v["server.remiss_ratio"] = ratio(thr.remisses, thr.outcomes["miss"])
	v["server.coalesced"] = float64(thr.outcomes["coalesced"])
	v["server.shed"] = float64(thr.shed)
	v["server.degraded"] = float64(thr.degraded)
	v["server.stale"] = float64(thr.outcomes["stale"])
	if total := lat.phaseTotal + thr.phaseTotal; total > 0 {
		v["server.phase_unattributed_pct"] = 100 * float64(total-lat.phaseNamed-thr.phaseNamed) / float64(total)
	}
	// The daemon pass is short, so a quantile is reported from 20
	// samples up rather than the 200 the end-to-end report asks for.
	hits, misses := lat.subset(outcomeIs("hit")), lat.subset(outcomeIs("miss"))
	if len(hits) >= 20 {
		v["client.hit_p50_us"] = us(time.Duration(quantile(hits, 0.5)))
		v["client.hit_p95_us"] = us(time.Duration(quantile(hits, 0.95)))
	}
	if len(misses) >= 20 {
		v["client.miss_p50_ms"] = ms(time.Duration(quantile(misses, 0.5)))
		v["client.miss_p95_ms"] = ms(time.Duration(quantile(misses, 0.95)))
	}
	v["proc.cpu_util"] = thr.cpu.Seconds() / thr.window.Seconds()
	v["bench.unexpected_hits"] = float64(lat.unexpectedHits + thr.unexpectedHits)
	v["bench.client_wait_pct"] = 100 * ratio(thr.waitNs, thr.busyNs)
	for _, q := range tailQuantiles {
		if lat.bandAt(lat.samples, q).mixed() {
			v["bench.mixed_bands"]++
		}
	}
	v["oracle.wrong_answers"] = float64(t.or.wrong)
	v["oracle.advice_gap_pct"] = t.or.gapPct()
	v["oracle.missed_feasible"] = float64(t.or.missedFeasible)
	v["oracle.checked"] = float64(t.or.checked)
	v["core.nontrivial_ratio"] = t.or.nontrivialRatio()

	// 2. The replay, untraced then traced, on the same requests.
	reqs := r.w.sequence(replayMax)[len(r.w.warm):]
	budget := d / 4
	plain, err := untracedReplay(r.w, reqs, budget)
	if err != nil {
		return nil, err
	}
	// The traced pass replays each miss several times over, so it gets
	// the same wall budget but will cover fewer requests; overhead is
	// compared on the requests both passes served.
	if t.rp, err = tracedReplay(r.w, reqs, budget); err != nil {
		return nil, err
	}
	defer t.rp.close()
	tr := t.rp.tr
	t.problems = append(t.problems, t.rp.errs...)

	serve := func(classes func(string) bool) (ds []time.Duration, allocs, kb []float64) {
		for class, ids := range t.rp.serveIDs {
			if !classes(class) {
				continue
			}
			for _, id := range ids {
				s := tr.spans[id]
				ds = append(ds, s.dur())
				allocs = append(allocs, float64(s.Allocs))
				kb = append(kb, float64(s.Bytes)/1024)
			}
		}
		return
	}
	rawHits, rawAllocs, _ := serve(func(c string) bool { return strings.HasSuffix(c, "/hit") })
	canonHits, _, _ := serve(func(c string) bool { return strings.HasSuffix(c, "/hit-canon") })
	missDs, missAllocs, missKB := serve(outcomeIs("miss"))
	v["server.serve_hit_raw_us"] = us(median(rawHits))
	v["server.serve_hit_canon_us"] = us(median(canonHits))
	v["server.serve_miss_ms"] = ms(median(missDs))
	v["server.hit_allocs"] = max(0, median(rawAllocs)-harnessAllocs())
	v["server.miss_allocs"] = median(missAllocs)
	v["server.miss_alloc_kb"] = median(missKB)
	v["server.decode_us"] = us(median(tr.durations("server.decode")))
	// Self time only means something for a serve whose layers were
	// replayed: the misses.
	var serveSelf []time.Duration
	child := tr.childTime()
	for class, ids := range t.rp.serveIDs {
		if outcomeIs("miss")(class) {
			for _, id := range ids {
				serveSelf = append(serveSelf, tr.spans[id].dur()-child[id])
			}
		}
	}
	v["server.self_ms"] = ms(median(serveSelf))
	if len(rawHits) > 0 && v["client.hit_p50_us"] > 0 {
		v["wire.overhead_us"] = v["client.hit_p50_us"] - v["server.serve_hit_raw_us"]
	}

	v["core.resolve_us"] = us(median(tr.durations("core.resolve")))
	v["core.shared_us"] = us(median(tr.durations("core.shared")))
	v["core.self_us"] = us(median(tr.selfTimes("core.shared")))
	v["core.bind_us"] = us(median(tr.durations("core.bind")))
	v["core.advise_mv1_ms"] = ms(median(tr.durations("core.advise_mv1")))
	v["core.advise_mv2_ms"] = ms(median(tr.durations("core.advise_mv2")))
	v["core.advise_mv3_us"] = us(median(tr.durations("core.advise_mv3")))
	v["core.pareto_us"] = us(median(tr.durations("core.pareto")))
	v["core.encode_us"] = us(median(tr.durations("core.encode")))

	run := median(tr.durations("compare.run"))
	runW1 := median(tr.durations("compare.run_w1"))
	runNoBE := median(tr.durations("compare.run_w1_nobe"))
	v["compare.run_ms"] = ms(run)
	v["compare.sweep_ms"] = ms(median(tr.durations("compare.sweep")))
	if runW1 > 0 {
		v["compare.breakeven_ms"] = ms(runW1 - runNoBE)
		v["compare.breakeven_share_pct"] = 100 * float64(runW1-runNoBE) / float64(runW1)
		v["compare.parallel_speedup"] = float64(runW1) / float64(run)
	}
	v["compare.encode_ms"] = ms(median(tr.durations("compare.encode")))
	v["compare.self_ms"] = ms(median(tr.selfTimes("compare.run_w1_nobe")))

	v["optimizer.kernel_us"] = us(median(tr.durations("optimizer.kernel")))
	v["optimizer.reprice_us"] = us(median(tr.durations("optimizer.reprice")))
	v["optimizer.solve_mv1_ms"] = ms(median(tr.durations("optimizer.solve_mv1")))
	v["optimizer.solve_mv2_ms"] = ms(median(tr.durations("optimizer.solve_mv2")))
	v["optimizer.solve_mv3_us"] = us(median(tr.durations("optimizer.solve_mv3")))
	v["optimizer.budget_outcome_ms"] = ms(median(tr.durations("optimizer.budget_outcome")))
	for _, scn := range searchScenarios {
		v["search.solve_"+scn+"_ms"] = ms(median(tr.durations("search.solve_" + scn)))
	}
	for _, c := range []string{"search.evals", "search.cached_states", "search.evals_per_ms", "search.gain_vs_knapsack_pct", "views.candidates"} {
		v[c] = median(tr.count[c])
	}
	v["lattice.new_us"] = us(median(tr.durations("lattice.new")))
	v["views.candidates_us"] = us(median(tr.durations("views.candidates")))

	// Overhead of tracing: the traced pass's serve spans against the
	// untraced pass's per-request clock, over the requests both served.
	var tracedServe, plainServe time.Duration
	for _, s := range tr.spans {
		if s.Parent == -1 && (s.Name == "server.serve" || s.Name == "facade.serve") && s.Trace < len(plain) {
			tracedServe += s.dur()
			plainServe += plain[s.Trace]
		}
	}
	if plainServe > 0 {
		v["bench.trace_overhead_pct"] = 100 * float64(tracedServe-plainServe) / float64(plainServe)
	}

	if t.rp.handler != nil {
		v["obs.scrape_ms"] = scrapeMS(t.rp.handler)
	}
	// What the forward hop costs: the same misses on an in-process
	// single node. Only a cluster workload has a hop to price.
	if len(r.w.daemonArgs) > 0 && len(missDs) > 0 {
		single := *r.w
		single.daemonArgs = nil
		srp, err := tracedReplay(&single, reqs[:t.rp.served], budget/2)
		if err != nil {
			return nil, err
		}
		srp.close()
		var singleMiss []time.Duration
		for class, ids := range srp.serveIDs {
			if outcomeIs("miss")(class) {
				for _, id := range ids {
					singleMiss = append(singleMiss, srp.tr.spans[id].dur())
				}
			}
		}
		if len(singleMiss) > 0 {
			v["server.forward_ms"] = ms(median(missDs)) - ms(median(singleMiss))
		}
	}

	// 3. The fixed probes.
	probes, err := fixedProbes()
	if err != nil {
		return nil, err
	}
	for k, x := range probes {
		v[k] = x
	}
	if t.path, err = tr.write(name); err != nil {
		return nil, err
	}
	return t, nil
}

// harnessAllocs is what handlerTarget itself allocates per request (the
// http.Request, its header map and URL), measured against a handler
// that does nothing, so that server.hit_allocs is the server's share.
func harnessAllocs() float64 {
	tr := newTracer()
	t := newHandlerTarget(nopHandler{})
	req := &request{endpoint: "advise", body: []byte("{}")}
	var xs []float64
	for i := 0; i < 20; i++ {
		id := tr.root(i, "nop", func() { t.do(req) })
		xs = append(xs, float64(tr.spans[id].Allocs))
	}
	return median(xs)
}

func (t *tracedRun) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed %d  traced ==\n", t.workload, t.seed)
	fmt.Fprintf(w, "why: %s\n", workloadWhy[t.workload])
	layer := ""
	for _, d := range layerMetrics {
		if l, _, _ := strings.Cut(d.name, "."); l != layer {
			layer = l
			fmt.Fprintf(w, " %s\n", layer)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, t.vals[d.name], d.unit)
	}
	names := map[string]int{}
	for _, s := range t.rp.tr.spans {
		names[s.Name]++
	}
	var parts []string
	for n, c := range names {
		parts = append(parts, fmt.Sprintf("%s×%d", n, c))
	}
	sort.Strings(parts)
	fmt.Fprintf(w, " %d spans written to %s: %s\n", len(t.rp.tr.spans), t.path, strings.Join(parts, " "))
	for _, p := range t.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
