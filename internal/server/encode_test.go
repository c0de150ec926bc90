package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strings"
	"testing"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/wiretest"
)

// checkServed holds one served body to encoding/json: decoded into its
// wire struct, the struct must encode — by reflection over its fields
// alone, by json.Marshal, and by its hand-written encoder when it has
// one — to exactly the bytes served.
func checkServed[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var resp T
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: served body does not decode: %v", what, err)
	}
	want, err := wiretest.Reference(resp)
	if err != nil || string(body) != string(want)+"\n" {
		t.Fatalf("%s: served body is not what encoding/json writes for it (err %v):\ngot:  %s\nwant: %s", what, err, body, want)
	}
	if got, err := json.Marshal(resp); err != nil || string(got) != string(want) {
		t.Fatalf("%s: json.Marshal differs from the reflection encoder (err %v):\ngot:  %s\nwant: %s", what, err, got, want)
	}
	if v, ok := any(resp).(interface {
		AppendJSON([]byte) ([]byte, error)
	}); ok {
		wiretest.Check(t, what, v)
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

// TestAdviseResponseAppendJSONMatchesReflection covers what no solve
// returns: seeded hostile responses, with and without each optional
// member.
func TestAdviseResponseAppendJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		resp := AdviseResponse{
			Scenario:    wiretest.String(rng),
			DatasetSize: wiretest.String(rng),
			Candidates:  rng.Intn(40) - 2,
			Degraded:    rng.Intn(4) == 0,
		}
		switch rng.Intn(3) {
		case 0:
			rec := wiretest.Recommendation(rng)
			rj := rec.JSON()
			resp.Recommendation = &rj
			if rng.Intn(2) == 0 {
				// The served route: the lazy form writes every member
				// from rec, the bytes the eager form's fields encode to.
				lazy, lj := resp, rec.LazyJSON()
				lazy.Recommendation = &lj
				want, _ := resp.AppendJSON(nil)
				if got, err := lazy.AppendJSON(nil); err != nil || string(got) != string(want) {
					t.Fatalf("lazy advise response differs from eager (err %v):\ngot:  %s\nwant: %s", err, got, want)
				}
			}
		case 1:
			resp.Pareto = core.ParetoJSON(wiretest.Pareto(rng))
		}
		wiretest.Check(t, "random advise response", resp)
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

// TestMissAllocBudget gates the miss path in counts, which repeat, not
// in nanoseconds, which do not: one request through ServeHTTP that
// misses both caches — decode, canonicalize, solve, encode, cache fill
// — on the named problems (every run a distinct fact_rows, so every run
// a distinct canonical problem). Budgets sit within 5% of the measured
// figures; the compare miss cost 3666 before the append-only encoder,
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
// the tariffs it only reads (sweep 158).
func TestMissAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name, path string
		body       func(n int) []byte
		budget     float64
	}{
		{"load-compare-2x2", "/v1/compare", compareMiss2x2Body, 190}, // 182
		{"paper16-mv1", "/v1/advise", func(n int) []byte {
			return fmt.Appendf(nil, `{"scenario":"mv1","budget":25,"queries":10,"frequency":30,"fact_rows":%d}`, 200_000_000+n)
		}, 69}, // 66
		{"sweep-2x2", "/v1/sweep", func(n int) []byte {
			return fmt.Appendf(nil, `{"budget":25,"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"fact_rows":%d,"queries":10,"frequency":30}`, 50_000_000+n)
		}, 157}, // 150
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Options{CacheSize: 1})
			body := &resettableBody{}
			req := &http.Request{Method: "POST", URL: &url.URL{Path: c.path}, Body: body}
			w := &nullResponseWriter{h: make(http.Header)}
			n := 0
			allocs := testing.AllocsPerRun(50, func() {
				n++
				body.Reset(c.body(n))
				w.status = 0
				s.ServeHTTP(w, req)
				if w.status != 200 || w.h.Get("X-Cache") != "miss" {
					t.Fatalf("status %d, X-Cache %q; want a 200 miss", w.status, w.h.Get("X-Cache"))
				}
			})
			if allocs > c.budget {
				t.Errorf("%s miss costs %.0f allocs/request, budget %.0f", c.name, allocs, c.budget)
			}
		})
	}
}
