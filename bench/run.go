package main

// run.go measures one workload end to end: set-up (several times, for a
// steady median), the measured window with tracing off, and the oracle
// pass over the kept answers.
//
// The window is spent at two load levels. Its first half drives the
// system with a single closed-loop client: nothing else is in flight, so
// the latency quantiles are what one caller waits, and they are what the
// per-layer spans of a traced run add up to. Its second half drives it
// with min(nproc,4) clients: every core is wanted, and that is where
// throughput and CPU per request are read. Quantiles taken under
// saturation on two cores mostly measure who else was on the run queue
// (the same build and seed differed by 25% on mixed-fleet's median).

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Set-up runs several times per invocation and setup_s is the median, so
// one cold page cache or one slow fork does not set the number: at least
// setupRepeatsMin times, and cheap set-ups (a tenth of a second) up to
// setupRepeatsMax times or setupBudget in total, whichever comes first.
// The last set-up's daemon is the one measured.
const (
	setupRepeatsMin = 3
	setupRepeatsMax = 9
	setupBudget     = time.Second
)

// rig is a workload made ready to measure: generated, daemon up (when
// the workload has one), clients connected, warm-up pass done.
type rig struct {
	w       *workload
	d       *daemon // nil for in-process workloads
	targets []target
	loader  *loader
	warmErr []string
}

func (r *rig) close() {
	for _, t := range r.targets {
		if ht, ok := t.(*httpTarget); ok {
			ht.close()
		}
	}
	if r.d != nil {
		r.d.stop()
	}
}

// setUp is the timed set-up: population generation, daemon exec to the
// first 200 on /healthz, and the warm-up pass. Compiling mvcloudd is
// not part of it.
func setUp(name string, seed int64, bin string) (*rig, time.Duration, error) {
	t0 := time.Now()
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: w, loader: newLoader(w)}
	if w.inProcess {
		for c := 0; c < clientCount(); c++ {
			t, err := newSearchTarget()
			if err != nil {
				return nil, 0, err
			}
			r.targets = append(r.targets, t)
		}
	} else {
		if r.d, err = startDaemon(bin, w.daemonArgs...); err != nil {
			return nil, 0, err
		}
		for c := 0; c < clientCount(); c++ {
			r.targets = append(r.targets, newHTTPTarget(r.d.addr))
		}
	}
	r.warmErr = r.warmUp()
	return r, time.Since(t0), nil
}

// warmUp spreads the warm-up requests over the clients, so every
// connection is established and the pass takes wall time ÷ clients.
func (r *rig) warmUp() []string {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
	)
	for c, t := range r.targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := &clientStats{classOf: map[string]uint8{}}
			cs.outcomes = map[string]int64{}
			for i := c; i < len(r.w.warm); i += len(r.targets) {
				r.loader.one(t, cs, r.w.warm[i], false)
			}
			mu.Lock()
			errs = append(errs, cs.errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return errs
}

func (r *rig) cpuNow() (time.Duration, error) {
	if r.d != nil {
		return r.d.cpuNow()
	}
	u, err := selfUsage()
	return u.cpu, err
}

// window is one measured window at its two load levels.
type window struct {
	lat *loadResult // one client: latency quantiles
	thr *loadResult // all clients: throughput and CPU
}

// measureWindow spends half of d with one client and half with all.
func (r *rig) measureWindow(d time.Duration) (window, error) {
	var w window
	var err error
	if w.lat, err = r.loader.run(r.targets[:1], d/2, r.cpuNow); err != nil {
		return w, err
	}
	w.thr, err = r.loader.run(r.targets, d/2, r.cpuNow)
	return w, err
}

func (w window) attempted() int64 { return w.lat.attempted + w.thr.attempted }
func (w window) ok() int64        { return w.lat.ok + w.thr.ok }

// failed counts operations that got no usable reply, or one whose bytes
// differ from the first reply for the same problem.
func (w window) failed() int64 {
	f := func(r *loadResult) int64 { return r.transport + r.non200 + r.mismatched }
	return f(w.lat) + f(w.thr)
}

func (w window) errs() []string { return append(append([]string(nil), w.lat.errs...), w.thr.errs...) }

// peakRSS stops the daemon (when there is one) and reads the system's
// peak resident set.
func (r *rig) peakRSS() (float64, error) {
	if r.d == nil {
		u, err := selfUsage()
		return u.peakRSS, err
	}
	if err := r.d.crashed(); err != nil {
		return 0, err
	}
	r.close()
	u, err := r.d.usage()
	return u.peakRSS, err
}

// measured is one workload's end-to-end result.
type measured struct {
	workload string
	seed     int64
	setups   []time.Duration // as timed
	// setupCal is each set-up's time divided by the speed factor of the
	// probes taken just before and after it.
	setupCal []time.Duration
	window
	kept     int // responses handed to the oracle
	or       *oracle
	peakRSS  float64 // MB
	bands    []band  // p50 and p90 of the one-client half
	problems []string
}

// median is the upper median of xs, and zero when xs is empty.
func median[T cmp.Ordered](xs []T) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// failed is the number of operations that did not produce a correct
// answer: transport errors, non-200s (429 included), responses whose
// bytes differ from the first for their problem, and oracle failures.
func (m *measured) failed() int64 { return m.window.failed() + int64(m.or.wrong) }

// measure runs one workload with tracing off.
func measure(name string, seed int64, d time.Duration, bin string) (*measured, error) {
	m := &measured{workload: name, seed: seed}
	var r *rig
	scr := newCalibScratch()
	before := scr.probe()
	for total := time.Duration(0); len(m.setups) < setupRepeatsMin || (len(m.setups) < setupRepeatsMax && total < setupBudget); {
		if r != nil {
			r.close()
		}
		var took time.Duration
		var err error
		if r, took, err = setUp(name, seed, bin); err != nil {
			return nil, err
		}
		after := scr.probe()
		m.setups = append(m.setups, took)
		m.setupCal = append(m.setupCal, time.Duration(float64(took)/speedFactor((before+after)/2)))
		total += took
		before = after
	}
	defer r.close()
	m.problems = append(m.problems, r.warmErr...)

	var err error
	if m.window, err = r.measureWindow(d); err != nil {
		return nil, err
	}
	if m.peakRSS, err = r.peakRSS(); err != nil {
		return nil, err
	}
	kept := r.loader.kept()
	m.kept = len(kept)
	m.or = runOracle(r.w, kept)
	m.problems = append(m.problems, m.errs()...)
	m.problems = append(m.problems, m.or.notes...)
	if m.lat.ok == 0 || m.thr.ok == 0 {
		return nil, fmt.Errorf("workload %s: no request succeeded: %v", name, m.problems)
	}
	for _, q := range tailQuantiles {
		m.bands = append(m.bands, m.lat.bandAt(m.lat.samples, q))
	}
	return m, nil
}

func runOracle(w *workload, kept []*firstReply) *oracle {
	gaps := gapChecksWire
	if w.inProcess {
		gaps = gapChecksSearch
	}
	or := newOracle(gaps)
	for _, f := range kept {
		or.check(f)
	}
	return or
}

// endToEnd returns the contract's end-to-end metrics: latency from the
// one-client half, rates from the all-clients half, each calibrated by
// the speed factor of that half's memory probes (calib.go).
func (m *measured) endToEnd() map[string]float64 {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fl, ft := speedFactor(m.lat.probeLevel()), speedFactor(m.thr.probeLevel())
	return map[string]float64{
		"setup_s":        median(m.setupCal).Seconds(),
		"throughput_rps": float64(m.thr.ok) / m.thr.window.Seconds() * ft,
		"p50_ms":         ms(quantile(m.lat.samples, 0.50)) / fl,
		"p90_ms":         ms(quantile(m.lat.samples, 0.90)) / fl,
		"cpu_ms_per_req": ms(int64(m.thr.cpu)) / float64(m.thr.ok) / ft,
	}
}
