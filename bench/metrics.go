package main

// metrics.go names every number the benchmark reports. BENCHMARK.json
// repeats the names, units, directions and bounds (a test keeps the two
// in step); README.md says what each means and which end-to-end metric
// each layer metric should move.

// metricDef is one reported number.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Layer
	// metrics have none.
	bound float64
}

// Every bound is the contract's ceiling, because the sandbox is loud:
// even calibrated (calib.go), ten runs on ten seeds spread
// (interquartile range ÷ median) by 2-17%, and the medians of a quiet
// and a loud ten-run pass differ by up to 20% (README.md, "How steady
// the numbers are"). A bound has to clear that, or the gate fires on
// weather.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
}

// tailQuantiles are the two reported latency quantiles. The tail is p90,
// not p95: a lone client completes about 130 compare-cold requests in
// its half of the window, so p95 would have six samples beyond it and
// read the weather; and on advise-cold p90 lies in the bulk of the mv2
// mode (the top sixth) where p95 lies in that mode's own tail.
var tailQuantiles = []float64{0.50, 0.90}

// countMetrics are made by counting, not timing: they must repeat
// exactly between two runs of the same build and seed. (oracle.checked
// is a count too, but of however many responses the window produced.)
var countMetrics = []string{
	"oracle.wrong_answers", "oracle.advice_gap_pct", "oracle.missed_feasible",
	"search.evals", "search.cached_states", "core.golden_drift", "views.candidates",
}
