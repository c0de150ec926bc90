package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/compare"
	"vmcloud/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the answers this build serves")

// inProcessTargets stands in for the daemon in tests: the same handler
// stack, no sockets, no child process.
func inProcessTargets(t *testing.T, w *workload, n int) []target {
	t.Helper()
	var out []target
	if w.inProcess {
		for i := 0; i < n; i++ {
			st, err := newSearchTarget()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}
	h, closeFn := newHandler(w)
	t.Cleanup(closeFn)
	for i := 0; i < n; i++ {
		out = append(out, newHandlerTarget(h))
	}
	return out
}

func noCPU() (time.Duration, error) { return 0, nil }

// runInProcess warms and measures a workload against in-process
// targets.
func runInProcess(t *testing.T, name string, seed int64, window time.Duration) (*rig, *loadResult) {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{w: w, loader: newLoader(w), targets: inProcessTargets(t, w, 2)}
	if errs := r.warmUp(); len(errs) > 0 {
		t.Fatalf("warm-up: %v", errs)
	}
	res, err := r.loader.run(r.targets, window, noCPU)
	if err != nil {
		t.Fatal(err)
	}
	return r, res
}

// TestSmoke runs every workload briefly in-process and holds it to the
// same standard as a full run: nothing fails and the oracle finds no
// wrong answer.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r, res := runInProcess(t, name, 7, 200*time.Millisecond)
			if res.ok == 0 || res.ok != res.attempted {
				t.Fatalf("attempted %d, ok %d: %v", res.attempted, res.ok, res.errs)
			}
			if res.mismatched != 0 {
				t.Errorf("%d responses differed from the first for their problem", res.mismatched)
			}
			or := runOracle(r.w, r.loader.kept())
			if or.wrong != 0 {
				t.Errorf("oracle: %d wrong answers: %v", or.wrong, or.notes)
			}
			if or.checked == 0 {
				t.Error("oracle checked nothing")
			}
			if r.w.cold && res.unexpectedHits != 0 {
				t.Errorf("%d unexpected hits on a cold workload", res.unexpectedHits)
			}
		})
	}
}

// TestGeneratorDeterministic: the same seed yields byte-identical
// sequences, warm-up included.
func TestGeneratorDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := a.sequence(400), b.sequence(400)
		for i := range sa {
			if !bytes.Equal(sa[i].body, sb[i].body) || sa[i].id != sb[i].id || sa[i].account != sb[i].account {
				t.Fatalf("%s: request %d differs between two builds of seed 11", name, i)
			}
			if oa, ob := sa[i].search, sb[i].search; oa != nil {
				if oa.scenario != ob.scenario || oa.factRows != ob.factRows || oa.seed != ob.seed ||
					oa.budget != ob.budget || oa.limit != ob.limit || oa.alpha != ob.alpha {
					t.Fatalf("%s: search op %d differs between two builds of seed 11", name, i)
				}
			}
		}
	}
}

// canonicalKey is the server's cache key for a wire request: endpoint,
// tenant, and the normalized request re-marshaled.
func canonicalKey(t *testing.T, req *request) string {
	t.Helper()
	var v interface{ Normalize() error }
	switch req.endpoint {
	case "advise":
		var ar server.AdviseRequest
		if err := json.Unmarshal(req.body, &ar); err != nil {
			t.Fatal(err)
		}
		if err := ar.ConfigJSON.Normalize(); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(ar)
		return "advise\x00" + req.account + "\x00" + string(b)
	case "compare":
		v = &compare.RequestJSON{}
	case "sweep":
		v = &compare.SweepRequestJSON{}
	}
	if err := json.Unmarshal(req.body, v); err != nil {
		t.Fatal(err)
	}
	if err := v.Normalize(); err != nil {
		t.Fatalf("%s: %v", req.body, err)
	}
	b, _ := json.Marshal(v)
	return req.endpoint + "\x00" + req.account + "\x00" + string(b)
}

// TestSeedsDisjoint: two seeds share no canonical key, and within one
// seed every problem id has its own key — the defect that gave loadgen's
// zero-repeat compare run 89% hits must not be inherited.
func TestSeedsDisjoint(t *testing.T) {
	for _, name := range []string{"advise-hot", "advise-cold", "compare-cold", "mixed-fleet"} {
		keys := map[string]int64{}
		for _, seed := range []int64{1, 2} {
			w, err := buildWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			own := map[string]int{}
			for _, req := range w.sequence(600) {
				k := canonicalKey(t, &req)
				if other, ok := keys[k]; ok && other != seed {
					t.Fatalf("%s: seeds %d and %d share canonical key %s", name, other, seed, k)
				}
				if id, ok := own[k]; ok && id != req.id {
					t.Fatalf("%s seed %d: problems %d and %d share canonical key %s", name, seed, id, req.id, k)
				}
				own[k] = req.id
			}
			for k := range own {
				keys[k] = seed
			}
		}
	}
}

// TestRespellingIsEquivalent: a re-spelled body has different bytes and
// the same canonical key.
func TestRespellingIsEquivalent(t *testing.T) {
	w, err := buildWorkload("advise-hot", 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i := uint64(0); i < 400; i++ {
		req := w.next(i)
		if !req.respelled {
			continue
		}
		seen++
		orig := w.warm[req.id]
		if bytes.Equal(req.body, orig.body) {
			t.Fatalf("request %d is marked respelled but is byte-identical", i)
		}
		if canonicalKey(t, &req) != canonicalKey(t, &orig) {
			t.Fatalf("request %d: respelling changed the canonical key\n%s\n%s", i, req.body, orig.body)
		}
	}
	if seen < 60 || seen > 140 {
		t.Errorf("%d of 400 requests respelled, want about a quarter", seen)
	}
}

// TestColdBodiesMissAndAreNontrivial: on the cold wire workloads every
// request really misses, and at least four in five answers select
// something feasible.
func TestColdBodiesMissAndAreNontrivial(t *testing.T) {
	for _, name := range []string{"advise-cold", "compare-cold"} {
		t.Run(name, func(t *testing.T) {
			r, res := runInProcess(t, name, 5, 400*time.Millisecond)
			if res.unexpectedHits != 0 || res.outcomes["miss"] != res.ok {
				t.Errorf("outcomes %v: every cold request must miss", res.outcomes)
			}
			or := runOracle(r.w, r.loader.kept())
			if got := or.nontrivialRatio(); got < 0.8 {
				t.Errorf("nontrivial ratio %.3f over %d answers, want >= 0.8", got, or.answers)
			}
		})
	}
}

// TestOracleCatchesWrongAnswers feeds the checker three doctored
// responses; each must land in wrong answers (or, for the hit whose
// bytes differ, in mismatched).
func TestOracleCatchesWrongAnswers(t *testing.T) {
	w, err := buildWorkload("advise-hot", 9)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	defer srv.Close()
	ht := newHandlerTarget(srv)
	// An mv1 problem whose honest answer selects at least two views.
	var req request
	var honest server.AdviseResponse
	var raw []byte
	for _, cand := range w.warm {
		if cand.label != "mv1" {
			continue
		}
		rep, err := ht.do(&cand)
		if err != nil || rep.status != http.StatusOK {
			t.Fatal(err, rep.status)
		}
		var resp server.AdviseResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Recommendation.Points) >= 2 {
			req, honest, raw = cand, resp, bytes.Clone(rep.body)
			break
		}
	}
	if raw == nil {
		t.Fatal("no mv1 problem with two selected views in the population")
	}
	check := func(body []byte) *oracle {
		or := newOracle(0)
		or.check(&firstReply{req: req, body: body})
		return or
	}
	if or := check(raw); or.wrong != 0 {
		t.Fatalf("the honest answer fails the oracle: %v", or.notes)
	}

	doctor := func(f func(*server.AdviseResponse)) []byte {
		var resp server.AdviseResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		f(&resp)
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dropped := doctor(func(r *server.AdviseResponse) {
		r.Recommendation.Points = r.Recommendation.Points[1:]
		r.Recommendation.Views = r.Recommendation.Views[1:]
	})
	if or := check(dropped); or.wrong != 1 {
		t.Errorf("one view dropped: wrong=%d, want 1", or.wrong)
	}
	offByOne := doctor(func(r *server.AdviseResponse) { r.Recommendation.Bill.Total++ })
	if or := check(offByOne); or.wrong != 1 {
		t.Errorf("bill off by one micro-dollar: wrong=%d, want 1", or.wrong)
	}
	if honest.Recommendation.Feasible {
		lied := doctor(func(r *server.AdviseResponse) { r.Recommendation.Feasible = false })
		if or := check(lied); or.wrong != 1 {
			t.Errorf("feasibility flipped: wrong=%d, want 1", or.wrong)
		}
	}

	// A hit whose bytes differ from its miss.
	l := newLoader(w)
	cs := &clientStats{classOf: map[string]uint8{}}
	cs.outcomes = map[string]int64{}
	l.one(fixedTarget{reply{status: 200, cache: "miss", body: raw}}, cs, req, true)
	l.one(fixedTarget{reply{status: 200, cache: "hit", body: offByOne}}, cs, req, true)
	if cs.mismatched != 1 {
		t.Errorf("hit differing from its miss: mismatched=%d, want 1", cs.mismatched)
	}
}

type fixedTarget struct{ rep reply }

func (f fixedTarget) do(*request) (reply, error) { return f.rep, nil }

// TestGolden keeps testdata/golden.json — the committed answers behind
// core.golden_drift — in step with what this build serves. A drift is
// not necessarily a bug (an exact DP may legitimately pick a better
// selection), but it must be looked at: rerun with -update and review
// the diff line by line.
func TestGolden(t *testing.T) {
	got, err := answerGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 24 {
		t.Fatalf("%d probes, want 24", len(got))
	}
	path := filepath.Join("testdata", "golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	drift, err := goldenDrift()
	if err != nil {
		t.Fatal(err)
	}
	if drift != 0 {
		t.Errorf("%d of 24 probe answers differ from %s", drift, path)
	}
	nontrivial := 0
	for _, p := range got {
		if len(p.Views) > 0 {
			nontrivial++
		}
	}
	if nontrivial < 12 {
		t.Errorf("only %d of the 18 recommendation probes select a view", nontrivial)
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the code:
// same workloads and reasons, same end-to-end metrics with units,
// directions and bounds, same per-layer metrics. With -update it
// rewrites the workload and metric lists from the code's tables (the
// command, paths and run length are kept as they are).
func TestBenchmarkJSONMatches(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if *update {
		if err := json.Unmarshal(b, &spec); err != nil {
			t.Fatal(err)
		}
		spec.Workloads, spec.EndToEnd, spec.PerLayer = nil, nil, nil
		for _, n := range workloadNames {
			spec.Workloads = append(spec.Workloads, struct {
				Name string `json:"name"`
				Why  string `json:"why"`
			}{n, workloadWhy[n]})
		}
		for _, d := range endToEndMetrics {
			spec.EndToEnd = append(spec.EndToEnd, struct {
				Name   string  `json:"name"`
				Unit   string  `json:"unit"`
				Better string  `json:"better"`
				Bound  float64 `json:"bound"`
			}{d.name, d.unit, d.better, d.bound})
		}
		for _, d := range layerMetrics {
			spec.PerLayer = append(spec.PerLayer, struct {
				Name   string `json:"name"`
				Unit   string `json:"unit"`
				Better string `json:"better"`
			}{d.name, d.unit, d.better})
		}
		if b, err = json.MarshalIndent(spec, "", "  "); err != nil {
			t.Fatal(err)
		}
		b = append(b, '\n')
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		spec = benchmarkSpec{}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %g above 0.25", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) || len(spec.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code (at most 128)", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), layerMetrics...) {
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, c := range countMetrics {
		if !seen[c] {
			t.Errorf("count metric %s is not a reported metric", c)
		}
	}
}

// TestDaemonLifecycle builds the real daemon, starts it on an ephemeral
// port, serves one request, and checks both the graceful stop and the
// report of a child that dies early.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin, err := buildDaemon(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	ht := newHTTPTarget(d.addr)
	rep, err := ht.do(&request{endpoint: "advise", body: []byte(`{"budget":25}`)})
	if err != nil || rep.status != http.StatusOK || rep.cache != "miss" {
		t.Fatalf("first request: %v status %d cache %q", err, rep.status, rep.cache)
	}
	if cpu, err := d.cpuNow(); err != nil || cpu < 0 {
		t.Errorf("cpuNow: %v %v", cpu, err)
	}
	ht.close()
	d.stop()
	if err := d.crashed(); err == nil {
		t.Error("a stopped daemon must read as exited")
	}
	u, err := d.usage()
	if err != nil || u.peakRSS <= 0 {
		t.Errorf("usage after stop: %+v %v", u, err)
	}
	// A child that exits before listening is reported with its stderr.
	if _, err := startDaemon(bin, "-no-such-flag"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("early exit: %v, want the child's stderr in the error", err)
	}
}
