package main

// load.go is the closed-loop driver: min(nproc,4) clients, each sending
// its next request only after the previous reply. Callers of an advisor
// wait for their answer, so a closed loop is the honest model; an
// arrival-rate workload is left to a later benchmark issue.

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clientCount is the number of closed-loop clients: never more than the
// machine has cores, so the load generator cannot be the bottleneck it
// measures, and capped so numbers stay comparable across larger hosts.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// sample is one completed request.
type sample struct {
	ns    int64
	class uint8
}

// probesPerWindow is how many times each client times the frozen memory
// kernel (calib.go) during a window, at equal intervals: the neighbours
// come and go within a second or three, so the machine's speed has to be
// sampled all through the window, not once.
const probesPerWindow = 20

// className names a latency mode. A hit costs the same whatever was
// asked, but which of the server's two hit paths served it matters
// (raw-key fast path, or decode+Normalize for a re-spelled body); any
// other outcome is told apart by scenario.
func className(req *request, cache string) string {
	if cache == "hit" {
		if req.respelled {
			return req.endpoint + "/hit-canon"
		}
		return req.endpoint + "/hit"
	}
	return req.endpoint + "/" + cache + "/" + req.label
}

// checkedMax bounds how many distinct problems per workload keep their
// first response for the oracle.
const checkedMax = 500

// firstReply is the first response seen for a problem id, kept for the
// oracle and for the byte-identity check of every later response.
type firstReply struct {
	req  request
	body []byte
}

// loadResult is everything one measured window produced.
type loadResult struct {
	clients   int
	window    time.Duration
	attempted int64
	ok        int64 // 200 responses
	transport int64 // transport errors
	non200    int64 // any other status, 429 included
	shed      int64 // the 429s among non200
	degraded  int64
	// mismatched counts responses whose bytes differ from the first
	// response for the same problem.
	mismatched int64
	// unexpectedHits counts non-miss responses on a cold workload.
	unexpectedHits int64
	// remisses counts misses for a problem that had already been
	// answered (evicted and solved again).
	remisses int64
	outcomes map[string]int64 // by X-Cache value
	classes  []string
	samples  []sample      // ok responses only, sorted by latency
	cpu      time.Duration // the system's CPU over the window
	// probe is the fastest memory-kernel run, in ms, in each of the
	// window's probesPerWindow intervals.
	probe []float64
	// waitNs is client time spent inside target.do; busyNs the whole
	// client loop. Their ratio says how much of a client's time was the
	// system's rather than the generator's or the checker's.
	waitNs, busyNs int64
	// phaseTotal and phaseNamed sum the X-Solve-Phases headers of the
	// misses (traced runs ask for them): the total, and the part some
	// named phase accounts for.
	phaseTotal, phaseNamed time.Duration
	errs                   []string // first few failures, for the report
}

// loader accumulates results across clients.
type loader struct {
	w       *workload
	next    atomic.Uint64
	firsts  []atomic.Pointer[firstReply]
	seen    []atomic.Bool // problem id answered before (population workloads)
	mu      sync.Mutex
	classID map[string]uint8
	classes []string // shared by every run's result; append-only
}

func newLoader(w *workload) *loader {
	return &loader{
		w:       w,
		firsts:  make([]atomic.Pointer[firstReply], checkedMax),
		seen:    make([]atomic.Bool, checkedMax),
		classID: map[string]uint8{},
	}
}

// clientStats is one client's private tally, merged at the end so the
// hot loop takes no lock.
type clientStats struct {
	loadResult
	classOf map[string]uint8
}

func (l *loader) classFor(cs *clientStats, req *request, cache string) uint8 {
	name := className(req, cache)
	if id, ok := cs.classOf[name]; ok {
		return id
	}
	l.mu.Lock()
	id, ok := l.classID[name]
	if !ok {
		id = uint8(len(l.classes))
		l.classID[name] = id
		l.classes = append(l.classes, name)
	}
	l.mu.Unlock()
	cs.classOf[name] = id
	return id
}

// one sends a single request and records it. timed=false is the warm-up
// pass: answers are kept for the oracle but nothing is counted.
func (l *loader) one(t target, cs *clientStats, req request, timed bool) {
	t0 := time.Now()
	rep, err := t.do(&req)
	d := time.Since(t0)
	if timed {
		cs.attempted++
		cs.waitNs += int64(d)
	}
	fail := func(msg string) {
		if len(cs.errs) < 3 {
			cs.errs = append(cs.errs, msg)
		}
	}
	switch {
	case err != nil:
		if timed {
			cs.transport++
		}
		fail(fmt.Sprintf("%s #%d: %v", req.endpoint, req.id, err))
		return
	case rep.status != http.StatusOK:
		if timed {
			cs.non200++
			if rep.status == http.StatusTooManyRequests {
				cs.shed++
			}
		}
		fail(fmt.Sprintf("%s #%d: status %d: %s", req.endpoint, req.id, rep.status, bytes.TrimSpace(rep.body)))
		return
	}
	if req.id < len(l.firsts) {
		if first := l.firsts[req.id].Load(); first != nil {
			if !bytes.Equal(first.body, rep.body) {
				cs.mismatched++
				fail(fmt.Sprintf("%s #%d: %s response differs from the first response for this problem", req.endpoint, req.id, rep.cache))
			}
		} else {
			l.firsts[req.id].CompareAndSwap(nil, &firstReply{req: req, body: bytes.Clone(rep.body)})
		}
		if rep.cache == "miss" && l.seen[req.id].Swap(true) && timed {
			cs.remisses++
		}
	}
	if !timed {
		return
	}
	cs.ok++
	cs.outcomes[rep.cache]++
	if rep.degraded {
		cs.degraded++
	}
	if l.w.cold && rep.cache != "miss" {
		cs.unexpectedHits++
	}
	if rep.phases != "" {
		total, named := phaseGap(rep.phases)
		cs.phaseTotal += total
		cs.phaseNamed += named
	}
	cs.samples = append(cs.samples, sample{ns: int64(d), class: l.classFor(cs, &req, rep.cache)})
}

// run drives one measured window: every target gets its own client
// goroutine, all stop at the deadline. cpuNow reads the system's
// cumulative CPU. Successive runs of one loader continue the same
// request sequence and share the kept first responses.
func (l *loader) run(targets []target, window time.Duration, cpuNow func() (time.Duration, error)) (*loadResult, error) {
	stats := make([]*clientStats, len(targets))
	var wg sync.WaitGroup
	every := window / probesPerWindow
	// Each client times the frozen memory kernel whenever it enters a
	// new interval; an interval's probe is the fastest of those runs.
	probe := make([]float64, probesPerWindow)
	var probeMu sync.Mutex
	cpu0, err := cpuNow()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(window)
	for c, t := range targets {
		cs := &clientStats{classOf: map[string]uint8{}}
		cs.outcomes = map[string]int64{}
		stats[c] = cs
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := newCalibScratch()
			last := -1
			var calib time.Duration
			t0 := time.Now()
			for time.Now().Before(deadline) {
				if k := min(int(time.Since(start)/every), probesPerWindow-1); k != last {
					last = k
					c0 := time.Now()
					d := scr.probe()
					calib += time.Since(c0)
					probeMu.Lock()
					if probe[k] == 0 || d < probe[k] {
						probe[k] = d
					}
					probeMu.Unlock()
				}
				l.one(t, cs, l.w.next(l.next.Add(1)-1), true)
			}
			cs.busyNs = int64(time.Since(t0) - calib)
		}()
	}
	wg.Wait()
	res := &loadResult{outcomes: map[string]int64{}, classes: l.classes, clients: len(targets), probe: probe}
	res.window = time.Since(start)
	cpu1, err := cpuNow()
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	for _, cs := range stats {
		res.attempted += cs.attempted
		res.ok += cs.ok
		res.transport += cs.transport
		res.non200 += cs.non200
		res.shed += cs.shed
		res.degraded += cs.degraded
		res.mismatched += cs.mismatched
		res.unexpectedHits += cs.unexpectedHits
		res.remisses += cs.remisses
		res.waitNs += cs.waitNs
		res.busyNs += cs.busyNs
		res.phaseTotal += cs.phaseTotal
		res.phaseNamed += cs.phaseNamed
		for k, v := range cs.outcomes {
			res.outcomes[k] += v
		}
		res.samples = append(res.samples, cs.samples...)
		for _, e := range cs.errs {
			if len(res.errs) < 6 {
				res.errs = append(res.errs, e)
			}
		}
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].ns < res.samples[j].ns })
	return res, nil
}

// kept returns the first response of every problem seen so far, in id
// order: what the oracle checks.
func (l *loader) kept() []*firstReply {
	var out []*firstReply
	for i := range l.firsts {
		if f := l.firsts[i].Load(); f != nil {
			out = append(out, f)
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of sorted samples, in ns.
func quantile(sorted []sample, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))].ns
}

// subset returns the samples whose class name passes keep, still
// sorted.
func (r *loadResult) subset(keep func(class string) bool) []sample {
	var out []sample
	for _, s := range r.samples {
		if keep(r.classes[s.class]) {
			out = append(out, s)
		}
	}
	return out
}

func outcomeIs(outcome string) func(string) bool {
	return func(class string) bool { return strings.Contains(class, "/"+outcome) }
}

// band describes the ±3-percentage-point neighbourhood of a quantile:
// which latency modes it is made of and how far apart its edges are. A
// quantile sitting on the cliff between two modes moves by the height
// of the cliff when the mix shifts by a point, so it measures the mix,
// not the system.
type band struct {
	q        float64
	parts    []string // "83% advise/miss/mv1", largest first
	topShare float64
	edge     float64 // latency at q+3pp ÷ latency at q−3pp
}

// mixed reports whether the band straddles two latency modes: no class
// holds 90% of it and its edges are more than 3× apart (the tail of one
// skewed mode easily spans 1.5×; a cliff between a hit and a solve, or
// between a cheap solve and a DP, is 5× and up).
func (b band) mixed() bool { return b.topShare < 0.9 && b.edge > 3 }

func (r *loadResult) bandAt(sorted []sample, q float64) band {
	n := len(sorted)
	lo := max(0, int((q-0.03)*float64(n)))
	hi := min(n-1, int((q+0.03)*float64(n)))
	b := band{q: q}
	if n == 0 || hi < lo {
		return b
	}
	counts := map[uint8]int{}
	for _, s := range sorted[lo : hi+1] {
		counts[s.class]++
	}
	type kv struct {
		c uint8
		n int
	}
	var kvs []kv
	for c, n := range counts {
		kvs = append(kvs, kv{c, n})
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].n != kvs[j].n {
			return kvs[i].n > kvs[j].n
		}
		return kvs[i].c < kvs[j].c
	})
	total := hi - lo + 1
	for _, e := range kvs {
		b.parts = append(b.parts, fmt.Sprintf("%d%% %s", (100*e.n+total/2)/total, r.classes[e.c]))
	}
	b.topShare = float64(kvs[0].n) / float64(total)
	if sorted[lo].ns > 0 {
		b.edge = float64(sorted[hi].ns) / float64(sorted[lo].ns)
	}
	return b
}

// probeLevel is the geometric mean of the window's memory probes, in
// ms: how contended the machine was, on average, while the window ran.
func (r *loadResult) probeLevel() float64 {
	var sum float64
	n := 0
	for _, p := range r.probe {
		if p > 0 { // an interval no client reached in time has no probe
			sum += math.Log(p)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
