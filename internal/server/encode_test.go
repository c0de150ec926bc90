package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"testing"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/units"
	"vmcloud/internal/wiretest"
)

// checkServed holds one served body to encoding/json: decoded into its
// wire struct, the struct must marshal — by json.Marshal, which is
// reflection over its fields alone — to exactly the bytes served.
func checkServed[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var resp T
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: served body does not decode: %v", what, err)
	}
	if want := wiretest.Want(t, what, resp); string(body) != string(want)+"\n" {
		t.Fatalf("%s: served body is not what encoding/json writes for it:\ngot:  %s\nwant: %s", what, body, want)
	}
	return resp
}

// TestServedBodiesMatchReflection runs the committed golden problems —
// the 24 of bench/testdata/golden.json, whose response hashes are
// checked too, this package's golden requests, and the compare and
// sweep shapes of cmd/mvcloud's goldens — through the real miss path.
func TestServedBodiesMatchReflection(t *testing.T) {
	s := testServer()
	raw, err := os.ReadFile("../../bench/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var probes []struct{ Name, Body, SHA256 string }
	if err := json.Unmarshal(raw, &probes); err != nil || len(probes) == 0 {
		t.Fatalf("golden.json: %d probes, %v", len(probes), err)
	}
	for _, p := range probes {
		w := do(t, s, "POST", "/v1/advise", p.Body)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", p.Name, w.Code, w.Body.String())
		}
		if sum := sha256.Sum256(w.Body.Bytes()); hex.EncodeToString(sum[:]) != p.SHA256 {
			t.Errorf("%s: response drifted from the committed hash:\n%s", p.Name, w.Body.String())
		}
		checkServed[AdviseResponse](t, p.Name, w.Body.Bytes())
	}
	for _, body := range []string{
		adviseBody("mv1", `"budget":25,"solver":"search","seed":42`),
		adviseBody("mv2", `"limit":"4h","solver":"search","seed":7`),
		adviseBody("mv3", `"alpha":0.5,"solver":"search","seed":3`),
		adviseBody("pareto", `"steps":5,"solver":"search","seed":5`),
		adviseBody("mv1", `"budget":0.01`), // infeasible, nothing selected
	} {
		w := do(t, s, "POST", "/v1/advise", body)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		checkServed[AdviseResponse](t, body, w.Body.Bytes())
	}
	for _, body := range []string{
		string(compareMiss2x2Body(0)),
		sweepBody(`"limit":"4h","scenarios":["mv1","mv2","mv3","pareto"],"steps":5`),
		sweepBody(`"instance_types":["small","xlarge"],"break_even_steps":-1`), // skipped cells
		sweepBody(`"solver":"search","seed":42,"providers":["aws-2012"],"fleet_sizes":[5]`),
	} {
		w := do(t, s, "POST", "/v1/compare", body)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		checkServed[compare.ComparisonJSON](t, body, w.Body.Bytes())
	}
	for _, body := range []string{
		sweepBody(`"fleet_sizes":[3,5]`), // cmd/mvcloud's sweep_mv1_fleets
		`{"alpha":0.65,"fleet_sizes":[5],"fact_rows":10000000,"solver":"search","seed":42}`, // sweep_mv3_search
		sweepBody(`"instance_types":["small","xlarge"]`),
	} {
		w := do(t, s, "POST", "/v1/sweep", body)
		if w.Code != 200 {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
		}
		checkServed[compare.SweepJSON](t, body, w.Body.Bytes())
	}
}

// TestAdviseBodyMatchesReflection covers what no solve returns: seeded
// hostile answers, recommendations and frontiers (empty ones included),
// degraded and not.
func TestAdviseBodyMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		rec := wiretest.Recommendation(rng)
		a := adviseAnswer{
			scenario:   wiretest.String(rng),
			size:       units.DataSize(rng.Int63n(1 << 50)),
			candidates: rng.Intn(40) - 2,
			rec:        &rec,
		}
		if rng.Intn(2) == 0 {
			a.front = wiretest.Pareto(rng)
			if a.front == nil {
				a.front = []core.ParetoPoint{}
			}
		}
		want := wiretest.Want(t, "random advise response", a.JSON())
		if got, err := a.AppendJSON([]byte("prefix")); err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("advise body differs from encoding/json (err %v):\ngot:  %s\nwant: prefix%s", err, got, want)
		}
	}
}

// TestAdviseEncodeAllocBudget gates the served encode of every advise
// scenario's body in allocations: none. The writer builds no wire
// struct; the dataset size's text is rendered on the stack.
func TestAdviseEncodeAllocBudget(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, body := range []string{
		adviseBody("mv1", `"budget":25`),
		adviseBody("mv2", `"limit":"4h"`),
		adviseBody("mv3", `"alpha":0.5`),
		adviseBody("pareto", `"steps":11`),
	} {
		var req AdviseRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		cfg, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		adv, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, front, err := req.Advise(adv)
		if err != nil {
			t.Fatal(err)
		}
		a := adviseAnswer{scenario: req.Scenario, size: core.DatasetSizeOf(adv), candidates: len(adv.Candidates), rec: &rec, front: front}
		if allocs := testing.AllocsPerRun(50, func() { buf, _ = a.AppendJSON(buf[:0]) }); allocs > 0 {
			t.Errorf("%s encode costs %.0f allocs, budget 0", req.Scenario, allocs)
		}
	}
}

// TestErrorBodyMatchesEncodingJSON: the hand-written error body is the
// map json.Marshal used to build, byte for byte, whatever a message
// holds — a decoder's complaint quotes the request back.
func TestErrorBodyMatchesEncodingJSON(t *testing.T) {
	msgs := []string{
		"", "overloaded: solve queue full, retry later",
		`invalid character '"' after object key`, `unknown scenario "<script>alert(1)</script>"`,
		"a & b < c > d", "tab\there\nnewline\rreturn\x00nul\x1f", `back\slash`, "sep\u2028para\u2029",
		"broken \xff\xfe utf-8 \xe2\x82", "×—α≈", strings.Repeat("long ", 1000),
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		msgs = append(msgs, wiretest.String(rng))
	}
	for _, msg := range msgs {
		want, err := json.Marshal(map[string]string{"error": msg})
		if err != nil {
			t.Fatal(err)
		}
		if got := errorBody(msg); string(got) != string(want)+"\n" {
			t.Errorf("errorBody(%q) = %s, want %s", msg, got, want)
		}
	}
}

// paper16MV1 is TestMissAllocBudget's mv1 problem at fact_rows + n.
func paper16MV1(n int) []byte {
	return fmt.Appendf(nil, `{"scenario":"mv1","budget":25,"queries":10,"frequency":30,"fact_rows":%d}`, 200_000_000+n)
}

// TestMissAllocBudget gates the miss path in counts, which repeat, not
// in nanoseconds, which do not: one request through ServeHTTP that
// misses both caches — decode, canonicalize, solve, encode, cache fill
// — on the named problems (every run a distinct fact_rows, so every run
// a distinct canonical problem), in allocations and in bytes allocated
// per request. Budgets sit within 5% of the measured figures; the
// compare miss cost 3666 before the append-only encoder,
// 515 before the request half lost its reflection and its two extra
// lattices (advise 292, sweep 422), and 390 before the leader solved in
// place and the problem structure was built in slabs (advise 173, sweep
// 298), and 273 before the reports' tables moved to the stack (sweep
// 181; advise went 71 → 72: a table fewer, a Content-Length value's two
// more), and 254 before the break-even sweep solved only the cells that
// can win, every encode read each recommendation from the solved value
// instead of copying it into a wire struct, a compare row wrote each
// distinct answer once and a session cut its solve scratch at its size
// (advise 69, sweep 180), and 190 before a request stopped deep-copying
// the tariffs it only reads (sweep 158). The advise and sweep bodies
// were built as wire structs until they were written from the solved
// value, as the comparison's is (advise mv1 66, mv3 68, pareto 93,
// sweep 150). The compare miss cost 182 (sweep 144) while a request's
// cells fanned out over a worker pool instead of running in key order,
// and 176 (mv1 64, mv3 66, pareto 80, sweep 138; 55.2 KB, 15.1 KB,
// 15.2 KB, 20.7 KB, 34.9 KB) before every solve built on a recycled
// workspace, and 73 (mv1 31, mv3 33, pareto 30, sweep 51; 34.1 KB,
// 7.5 KB, 7.6 KB, 7.3 KB, 16.5 KB) while the plumbing around a solve
// allocated its own flight call, done channel, timeout context and
// trace, a new entry per cache insert and a Content-Length value per
// fill, a packed copy of the canonical key per raw key, and Normalize
// rebuilt the paper's workload twice. An advise miss cost 3 more (mv1
// 14, mv3 16, pareto 13; 5.3 KB, 5.4 KB, 5.1 KB) while Resolve took its
// config by value and a named tariff's copy by address, and the answer
// and its recommendation moved to the heap behind encodeBody's
// interface parameter.
//
// The evicted rows re-post one primed body whose response is gone but
// whose raw key survives: it takes the same miss path as a new body. A
// second route, which decoded the remembered canonical key back into a
// request, cost 78 (compare 187); the evicted rows cost 28 and 70 before
// the record above. The requests here carry no cancellable context, so
// the leader registers no leave on it; the cancellable row is the same
// miss under one, as net/http's requests are: context.AfterFunc costs
// three allocations more.
//
// The race detector makes sync.Pool drop a quarter of what is put back,
// so under it the workspace pool cannot hold these budgets.
func TestMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces at random under the race detector")
	}
	for _, c := range []struct {
		name, path string
		body       func(n int) []byte
		allocs     float64
		bytes      uint64
		evicted    bool
		cancelable bool
	}{
		{"load-compare-2x2", "/v1/compare", compareMiss2x2Body, 60, 33_400, false, false}, // 57, 31.8 KB
		{"paper16-mv1", "/v1/advise", paper16MV1, 12, 5_150, false, false},                // 11, 4.9 KB
		{"paper16-mv3", "/v1/advise", func(n int) []byte {
			return fmt.Appendf(nil, `{"scenario":"mv3","alpha":0.5,"queries":10,"frequency":30,"fact_rows":%d}`, 200_000_000+n)
		}, 14, 5_200, false, false}, // 13, 4.9 KB
		{"paper16-pareto", "/v1/advise", func(n int) []byte {
			return fmt.Appendf(nil, `{"scenario":"pareto","steps":11,"queries":10,"frequency":30,"fact_rows":%d}`, 200_000_000+n)
		}, 11, 4_900, false, false}, // 10, 4.7 KB
		{"sweep-2x2", "/v1/sweep", func(n int) []byte {
			return fmt.Appendf(nil, `{"budget":25,"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"fact_rows":%d,"queries":10,"frequency":30}`, 50_000_000+n)
		}, 36, 15_000, false, false}, // 34, 14.3 KB
		{"evicted-paper16-mv1", "/v1/advise", paper16MV1, 12, 5_150, true, false},                // 11, 4.9 KB
		{"evicted-load-compare-2x2", "/v1/compare", compareMiss2x2Body, 59, 33_400, true, false}, // 56, 31.7 KB
		{"cancelable-paper16-mv1", "/v1/advise", paper16MV1, 15, 5_350, false, true},             // 14, 5.1 KB
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Options{CacheSize: 1})
			body := &resettableBody{}
			req := &http.Request{Method: "POST", URL: &url.URL{Path: c.path}, Body: body}
			if c.cancelable {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req = req.WithContext(ctx)
			}
			w := &nullResponseWriter{h: make(http.Header)}
			n := 0
			if c.evicted {
				// Prime the raw-key cache, then drop the response cache for
				// good: every post below finds its body's raw key and no
				// response.
				body.Reset(c.body(0))
				s.ServeHTTP(w, req)
				if w.status != 200 || s.rawKeys.Len() != 1 {
					t.Fatalf("prime: status %d, %d raw keys", w.status, s.rawKeys.Len())
				}
				s.cache = newSieveCache(0, 0)
			}
			miss := func() {
				if !c.evicted {
					n++
				}
				body.Reset(c.body(n))
				w.status = 0
				s.ServeHTTP(w, req)
				if w.status != 200 || w.h.Get("X-Cache") != "miss" {
					t.Fatalf("status %d, X-Cache %q; want a 200 miss", w.status, w.h.Get("X-Cache"))
				}
			}
			const runs = 50
			allocs := testing.AllocsPerRun(runs, miss)
			// One P, as AllocsPerRun runs on: the pools keep what is put
			// back per P.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				miss()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s: %.0f allocs, %d B", c.name, allocs, bytes)
			if allocs > c.allocs {
				t.Errorf("%s miss costs %.0f allocs/request, budget %.0f", c.name, allocs, c.allocs)
			}
			if bytes > c.bytes {
				t.Errorf("%s miss allocates %d B/request, budget %d", c.name, bytes, c.bytes)
			}
		})
	}
}
