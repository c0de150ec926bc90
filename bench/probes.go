package main

// probes.go holds the fixed named problems timed on every traced run,
// whatever the workload: the numbers an optimisation of one layer is
// most likely to move, measured on inputs that never change. They take
// no seed on purpose.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/schema"
	"vmcloud/internal/server"
	"vmcloud/internal/shard"
	"vmcloud/internal/views"
	wl "vmcloud/internal/workload"
)

// timeMedian runs f n times and returns the median duration.
func timeMedian(n int, f func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0)
	}
	return median(ds)
}

// paper16 is the paper's setting in the regime where views cost money,
// so the mv1 knapsack DP really runs: 200M rows, 10 queries, every query
// twice a month (baseline $3.10, all eight candidates $3.70).
func paper16() (*core.Advisor, error) {
	cfg, err := core.ConfigJSON{Queries: 10, Frequency: 2}.Config()
	if err != nil {
		return nil, err
	}
	return core.New(cfg)
}

// synthetic256 is the search-large shape: a 4×4 synthetic schema (256
// cuboids), 40 random queries, 48 candidates.
func synthetic256() (*schema.Schema, *lattice.Lattice, wl.Workload, error) {
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		return nil, nil, wl.Workload{}, err
	}
	l, err := lattice.New(sch, 1_000_000_000)
	if err != nil {
		return nil, nil, wl.Workload{}, err
	}
	w, err := wl.Random(l, searchQueries, 8, 1)
	return sch, l, w, err
}

// fixedProbes returns the layer metrics that do not depend on the
// workload.
func fixedProbes() (map[string]float64, error) {
	m := map[string]float64{}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// optimizer: the dense DP's two known pathologies, its scratch, and
	// the oracle's own cost.
	adv, err := paper16()
	if err != nil {
		return nil, err
	}
	// A fresh binding per timing: a session caches its knapsack items
	// and baseline after the first solve.
	solveAt := func(budget money.Money) (time.Duration, error) {
		ds := make([]time.Duration, 5)
		for i := range ds {
			a, err := paper16()
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := a.Session().SolveMV1(budget); err != nil {
				return 0, err
			}
			ds[i] = time.Since(t0)
		}
		return median(ds), nil
	}
	lo, err := solveAt(money.FromDollars(5))
	if err != nil {
		return nil, err
	}
	hi, err := solveAt(money.FromDollars(400))
	if err != nil {
		return nil, err
	}
	if lo > 0 {
		m["optimizer.mv1_budget_flatness"] = float64(hi) / float64(lo)
	}

	vals, wts := make([]int64, 15), make([]int64, 15)
	for i := range vals {
		vals[i], wts[i] = int64(1000+37*i), int64(30+7*i)
	}
	small := timeMedian(5, func() { _, err = optimizer.Knapsack01(vals, wts, 1e3) })
	if err != nil {
		return nil, err
	}
	for i := range wts {
		wts[i] *= 1e6
	}
	// Two GCs empty the sync.Pool, so the next solve allocates its
	// table afresh and TotalAlloc sees how large it is.
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = optimizer.Knapsack01(vals, wts, 5e8)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	m["optimizer.scratch_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	big := timeMedian(5, func() { _, err = optimizer.Knapsack01(vals, wts, 5e8) })
	if err != nil {
		return nil, err
	}
	if small > 0 {
		m["optimizer.knapsack_cap_ratio"] = float64(big) / float64(small)
	}

	all := views.Points(adv.Candidates)
	m["optimizer.evaluate_us"] = us(timeMedian(200, func() { _, _, err = adv.Ev.Evaluate(all) }))
	if err != nil {
		return nil, err
	}
	budget := money.FromDollars(3.4)
	p := params{scenario: "mv1", budget: budget}
	m["optimizer.exhaustive_ms"] = ms(timeMedian(3, func() { _, err = adv.Ev.SolveExhaustive(adv.Candidates, p.objective, p.met) }))
	if err != nil {
		return nil, err
	}

	// lattice, views, and the incremental engine on the big lattice.
	sch, _, w, err := synthetic256()
	if err != nil {
		return nil, err
	}
	var l *lattice.Lattice
	m["lattice.new256_us"] = us(timeMedian(5, func() { l, err = lattice.New(sch, 1_000_000_000) }))
	if err != nil {
		return nil, err
	}
	m["views.candidates256_ms"] = ms(timeMedian(3, func() { _, err = views.GenerateCandidates(l, w, searchCandidates) }))
	if err != nil {
		return nil, err
	}
	big256, err := newSearchAdvisor(sch, &searchOp{factRows: 1_000_000_000, w: w})
	if err != nil {
		return nil, err
	}
	eng := big256.Session().Engine()
	const moves = 20000
	t0 := time.Now()
	for i := 0; i < moves/2; i++ {
		eng.Add(i % eng.Len())
		eng.Drop(i % eng.Len())
	}
	m["optimizer.inc_move_ns"] = float64(time.Since(t0)) / moves

	// shard: ring lookups and how evenly three workers split keys.
	ring, err := shard.New(0, []string{"worker-0", "worker-1", "worker-2"})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 3000)
	for i := range keys {
		keys[i] = fmt.Sprintf(`advise%ctenant-%d%c{"scenario":"mv1","budget":"$%d.50","fact_rows":%d}`, 0, i%4, 0, i, 5_000_000+i)
	}
	owned := map[string]int{}
	t0 = time.Now()
	for _, k := range keys {
		owned[ring.Owner(k)]++
	}
	m["shard.owner_ns"] = float64(time.Since(t0)) / float64(len(keys))
	buf := make([]string, 0, 3)
	t0 = time.Now()
	for _, k := range keys {
		buf = ring.Prefer(k, buf)
	}
	m["shard.prefer_ns"] = float64(time.Since(t0)) / float64(len(keys))
	most := 0
	for _, n := range owned {
		most = max(most, n)
	}
	m["shard.balance_max_share"] = float64(most) / float64(len(keys))

	// core: the 24 golden probe problems.
	drift, err := goldenDrift()
	if err != nil {
		return nil, err
	}
	m["core.golden_drift"] = float64(drift)
	return m, nil
}

// goldenProbe is one of the 24 fixed advise problems whose answers are
// committed in testdata/golden.json.
type goldenProbe struct {
	Name string `json:"name"`
	Body string `json:"body"`
	// SHA256 is of the served response body; Views and Total make a
	// drift readable in a diff.
	SHA256 string   `json:"sha256"`
	Views  []string `json:"views"`
	Total  string   `json:"total,omitempty"`
}

// goldenBodies builds the 24 probe requests: six problem shapes (three
// where views cost money, three where they pay for themselves) under
// each of the four scenarios.
func goldenBodies() []goldenProbe {
	shapes := []struct {
		name, shape, budget, limit string
	}{
		{"paper-f2", `"queries":10,"frequency":2`, "3.45", "1h30m"},
		{"small-f1", `"fact_rows":50000000,"queries":10,"frequency":2`, "1.90", "50m"},
		{"stratus8", `"provider":"stratus","instances":8,"fact_rows":7409031,"queries":7,"frequency":17`, "5.90", "4h5m"},
		{"paper-f30", `"queries":10,"frequency":30`, "25", "20h"},
		{"big-f10", `"fact_rows":1000000000,"queries":5,"frequency":10`, "20", "9h"},
		{"nimbus3", `"provider":"nimbus","instances":3,"fact_rows":160101042,"queries":5,"frequency":26`, "4", "8h"},
	}
	var out []goldenProbe
	for _, s := range shapes {
		out = append(out,
			goldenProbe{Name: s.name + "/mv1", Body: fmt.Sprintf(`{"scenario":"mv1","budget":%s,%s}`, s.budget, s.shape)},
			goldenProbe{Name: s.name + "/mv2", Body: fmt.Sprintf(`{"scenario":"mv2","limit":%q,%s}`, s.limit, s.shape)},
			goldenProbe{Name: s.name + "/mv3", Body: fmt.Sprintf(`{"scenario":"mv3","alpha":0.7,%s}`, s.shape)},
			goldenProbe{Name: s.name + "/pareto", Body: fmt.Sprintf(`{"scenario":"pareto","steps":7,%s}`, s.shape)},
		)
	}
	return out
}

// answerGolden serves every probe on a fresh in-process server and
// fills in what was answered.
func answerGolden() ([]goldenProbe, error) {
	srv := server.New(server.Options{})
	defer srv.Close()
	t := newHandlerTarget(srv)
	probes := goldenBodies()
	for i := range probes {
		p := &probes[i]
		rep, err := t.do(&request{endpoint: "advise", body: []byte(p.Body)})
		if err != nil {
			return nil, err
		}
		if rep.status != http.StatusOK {
			return nil, fmt.Errorf("golden probe %s: status %d: %s", p.Name, rep.status, rep.body)
		}
		sum := sha256.Sum256(rep.body)
		p.SHA256 = hex.EncodeToString(sum[:])
		var resp server.AdviseResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return nil, err
		}
		p.Views = []string{}
		if resp.Recommendation != nil {
			p.Views = resp.Recommendation.Views
			p.Total = resp.Recommendation.Bill.Total.String()
		}
	}
	return probes, nil
}

func goldenPath() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	return filepath.Join(root, "bench", "testdata", "golden.json"), nil
}

// goldenDrift counts probe answers that differ from the committed ones.
func goldenDrift() (int, error) {
	path, err := goldenPath()
	if err != nil {
		return 0, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var want []goldenProbe
	if err := json.Unmarshal(b, &want); err != nil {
		return 0, fmt.Errorf("%s: %v", path, err)
	}
	got, err := answerGolden()
	if err != nil {
		return 0, err
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("%s holds %d probes, the benchmark has %d: regenerate it (go test -run TestGolden -update)", path, len(want), len(got))
	}
	drift := 0
	for i := range got {
		if got[i].Body != want[i].Body || got[i].SHA256 != want[i].SHA256 {
			drift++
		}
	}
	return drift, nil
}

// scrapeMS renders GET /metrics on a server that has just served the
// replay.
func scrapeMS(h http.Handler) float64 {
	d := timeMedian(5, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	})
	return float64(d) / 1e6
}
