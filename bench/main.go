// Command bench is the repository's benchmark: six named workloads
// against the real mvcloudd daemon (and one in-process search workload),
// every kept answer checked by the exhaustive-evaluator oracle, and a
// per-layer trace recorded from outside the program.
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa]
//
// With -workload it prints, as its last line of standard output, one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. Without
// -workload it runs every workload. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// watchdogLimit ends a run that would otherwise outlive the driver's
// patience: children are stopped and the exit is non-zero.
const (
	watchdogLimit = 170 * time.Second
	buildLimit    = 12 * time.Minute
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames, ", ")+")")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
		seconds = flag.Int("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = record the per-layer trace and report layer metrics instead of end-to-end ones")
		aa      = flag.Bool("aa", false, "A/A check: run two sides of this one build and hold their medians to the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("want -seconds >= 1 and -trace 0 or 1"))
	}

	// Every way out stops the children: normal return, a signal, the
	// watchdog, or fatal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllDaemons()
		os.Exit(130)
	}()

	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	window := time.Duration(*seconds) * time.Second
	if *aa {
		os.Exit(runAA(names, *seed, window, os.Stdout))
	}
	code := 0
	for _, n := range names {
		out, err := runOne(n, *seed, window, *trace == 1, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !out.Correct {
			code = 1
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	os.Exit(code)
}

func fatal(err error) {
	stopAllDaemons()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// output is the contract's result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// mixedBands counts reported quantiles that straddle two latency
	// modes; only -aa acts on it.
	mixedBands int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in one mode, under the watchdog, and
// writes its report to w.
func runOne(name string, seed int64, window time.Duration, traced bool, w io.Writer) (*output, error) {
	if _, ok := workloadWhy[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	// The first build in a fresh checkout compiles the standard library
	// too; it gets its own, longer limit and is not the watchdog's.
	ctx, cancel := context.WithTimeout(context.Background(), buildLimit)
	bin, err := buildDaemon(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	wd := time.AfterFunc(watchdogLimit, func() {
		fatal(fmt.Errorf("workload %s still running after %v", name, watchdogLimit))
	})
	defer wd.Stop()
	out := &output{Metrics: map[string]metricValue{}}
	if traced {
		t, err := measureTraced(name, seed, window, bin)
		if err != nil {
			return nil, err
		}
		t.print(w)
		out.Attempted, out.Failed = t.attempted()+int64(t.rp.served), t.failed()
		for _, d := range layerMetrics {
			out.Metrics[d.name] = metricValue{t.vals[d.name], d.unit}
		}
		out.mixedBands = int(t.vals["bench.mixed_bands"])
	} else {
		m, err := measure(name, seed, window, bin)
		if err != nil {
			return nil, err
		}
		m.print(w)
		out.Attempted, out.Failed = m.attempted(), m.failed()
		vals := m.endToEnd()
		for _, d := range endToEndMetrics {
			out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		for _, b := range m.bands {
			if b.mixed() {
				out.mixedBands++
			}
		}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// print writes the human-readable report of an end-to-end run.
func (m *measured) print(w io.Writer) {
	lat, thr := m.lat, m.thr
	fmt.Fprintf(w, "\n== %s  seed %d  window %.1fs with 1 client + %.1fs with %d clients, closed loop ==\n",
		m.workload, m.seed, lat.window.Seconds(), thr.window.Seconds(), thr.clients)
	fmt.Fprintf(w, "why: %s\n", workloadWhy[m.workload])
	vals := m.endToEnd()
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "  %-18s %12.4f %-5s (%s is better, bound %.0f%%)\n", d.name, vals[d.name], d.unit, d.better, 100*d.bound)
	}
	fmt.Fprintf(w, "  calibration: memory probe %.2f ms with 1 client, %.2f ms with %d (quiet reference %.2f): times above are the raw ones ÷ %.3f and ÷ %.3f\n",
		lat.probeLevel(), thr.probeLevel(), thr.clients, probeQuietMs, speedFactor(lat.probeLevel()), speedFactor(thr.probeLevel()))
	fmt.Fprintf(w, "  set-up runs, as timed: %v\n", m.setups)
	fmt.Fprintf(w, "  peak_rss_mb %.1f  (a layer metric: it moves 10-40%% between identical runs)\n", m.peakRSS)
	fmt.Fprintf(w, " latency, one client: %d responses in %.1fs\n", lat.ok, lat.window.Seconds())
	for _, o := range []string{"hit", "miss", "coalesced", "stale"} {
		s := lat.subset(outcomeIs(o))
		if len(s) < 200 {
			if len(s) > 0 {
				fmt.Fprintf(w, "  %s: %d samples, fewer than the 200 a quantile of its own needs\n", o, len(s))
			}
			continue
		}
		fmt.Fprintf(w, "  %s_p50_ms %.4f  %s_p95_ms %.4f  (%d samples)\n",
			o, float64(quantile(s, 0.5))/1e6, o, float64(quantile(s, 0.95))/1e6, len(s))
	}
	for _, name := range lat.classes {
		if s := lat.subset(func(class string) bool { return class == name }); len(s) > 0 {
			fmt.Fprintf(w, "  mode %-24s n=%-7d p50 %9.4f ms  p95 %9.4f ms\n", name, len(s), float64(quantile(s, 0.5))/1e6, float64(quantile(s, 0.95))/1e6)
		}
	}
	for _, b := range m.bands {
		tag := "one mode"
		if b.mixed() {
			tag = "MIXED"
		}
		fmt.Fprintf(w, "  p%.0f band ±3pp: %s; edge ratio %.2f — %s\n", 100*b.q, strings.Join(b.parts, ", "), b.edge, tag)
	}
	fmt.Fprintf(w, " throughput, %d clients: %d responses in %.1fs\n", thr.clients, thr.ok, thr.window.Seconds())
	var outs []string
	for k, v := range thr.outcomes {
		outs = append(outs, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(outs)
	fmt.Fprintf(w, "  outcomes: %s  unexpected_hits %d  remisses %d  degraded %d  client_wait %.1f%%  cpu_util %.2f cores\n",
		strings.Join(outs, " "), lat.unexpectedHits+thr.unexpectedHits, thr.remisses, lat.degraded+thr.degraded,
		100*ratio(thr.waitNs, thr.busyNs), thr.cpu.Seconds()/thr.window.Seconds())
	for _, r := range []*loadResult{lat, thr} {
		fmt.Fprintf(w, "  memory probes, %d client(s), ms:", r.clients)
		for _, s := range r.probe {
			fmt.Fprintf(w, " %.2f", s)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, " answers\n")
	fmt.Fprintf(w, "  attempted %d  ok %d  transport errors %d  non-200 %d (429: %d)\n",
		m.attempted(), m.ok(), lat.transport+thr.transport, lat.non200+thr.non200, lat.shed+thr.shed)
	fmt.Fprintf(w, "  fail_ratio %.6f  wrong_answers %d  (oracle rebuilt %d recommendations from %d kept responses; %d responses differed from their first)\n",
		ratio(m.failed(), m.attempted()), m.or.wrong, m.or.checked, m.kept, lat.mismatched+thr.mismatched)
	fmt.Fprintf(w, "  advice_gap_pct %.6f over %d exhaustive comparisons (%d feasible optima missed); nontrivial answers %.3f\n",
		m.or.gapPct(), m.or.gapN, m.or.missedFeasible, m.or.nontrivialRatio())
	for _, p := range m.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// aaRuns is how many end-to-end runs each side of the A/A check gets.
// Single runs on this sandbox spread by about 10% (README.md, "How
// steady"), so one pair differs by more than a 25% bound on one metric
// in fifteen; the medians of five do on one in a thousand.
const aaRuns = 5

// runAA is the A/A check: every workload 2×aaRuns times with tracing
// off, alternately for side A and side B, and twice traced, all on this
// build and seed. The two sides' medians must agree within each
// end-to-end metric's bound, every count metric must repeat exactly, and
// no reported quantile may straddle two latency modes — except on the
// workloads whose mixture is the point.
func runAA(names []string, seed int64, window time.Duration, w io.Writer) int {
	bad := 0
	for _, n := range names {
		fmt.Fprintf(w, "\n== A/A %s  seed %d  medians of %d runs a side ==\n", n, seed, aaRuns)
		var e2e [2][]*output
		var layer [2]*output
		for k := 0; k < 2*aaRuns; k++ {
			out, err := runOne(n, seed, window, false, io.Discard)
			if err != nil {
				fatal(err)
			}
			e2e[k%2] = append(e2e[k%2], out)
		}
		for k := range layer {
			var err error
			if layer[k], err = runOne(n, seed, window, true, io.Discard); err != nil {
				fatal(err)
			}
		}
		side := func(k int, metric string) float64 {
			var xs []float64
			for _, o := range e2e[k] {
				xs = append(xs, o.Metrics[metric].Value)
			}
			return median(xs)
		}
		for _, d := range endToEndMetrics {
			a, b := side(0, d.name), side(1, d.name)
			diff := 0.0
			if a+b != 0 {
				diff = 2 * (b - a) / (a + b)
			}
			verdict := "ok"
			if diff > d.bound || diff < -d.bound {
				verdict = "VIOLATION"
				bad++
			}
			fmt.Fprintf(w, "  %-24s %14.4f %14.4f %-5s  diff %+6.1f%%  bound %2.0f%%  %s\n", d.name, a, b, d.unit, 100*diff, 100*d.bound, verdict)
		}
		for _, c := range countMetrics {
			a, b := layer[0].Metrics[c].Value, layer[1].Metrics[c].Value
			verdict := "repeats"
			if a != b {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(w, "  %-24s %14.6f %14.6f %-5s  %s\n", c, a, b, layer[0].Metrics[c].Unit, verdict)
		}
		for k, o := range append(append(e2e[0], e2e[1]...), layer[:]...) {
			if !o.Correct {
				fmt.Fprintf(w, "  run %d: %d of %d operations failed\n", k, o.Failed, o.Attempted)
				bad++
			}
			if o.mixedBands > 0 {
				if mixedByDesign[n] {
					fmt.Fprintf(w, "  run %d: %d quantile band(s) straddle two modes (expected: this workload is a mixture)\n", k, o.mixedBands)
				} else {
					fmt.Fprintf(w, "  run %d: %d quantile band(s) straddle two modes: MIXED\n", k, o.mixedBands)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\nA/A: %d problem(s)\n", bad)
		return 1
	}
	fmt.Fprintf(w, "\nA/A: two sides of the same build agree within every bound\n")
	return 0
}
