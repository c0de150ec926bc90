package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/money"
	"vmcloud/internal/wiretest"
	"vmcloud/internal/workload"
)

// wireBody is one request body and the endpoint it is for.
type wireBody struct{ endpoint, body string }

func newMemoRequest(endpoint string) memoRequest {
	return tableServer.endpoint(endpoint).newReq()
}

// tableServer lends its endpoint table to the tests that need a row and
// no server; memoizedEndpoints names the rows.
var tableServer = testServer()

var memoizedEndpoints = func() (names []string) {
	for _, e := range tableServer.endpoints {
		names = append(names, e.name)
	}
	return names
}()

// endpoint returns the row named name.
func (s *Server) endpoint(name string) *endpoint {
	for _, e := range s.endpoints {
		if e.name == name {
			return e
		}
	}
	panic("no endpoint " + name)
}

// goldenRequests are the committed request bodies: the 24 problems of
// bench/testdata/golden.json, this package's golden requests, the
// compare and sweep shapes of cmd/mvcloud's goldens, and the repo
// benchmark's three body shapes — plus explicit workloads, by levels
// and by point, and an inline tariff, which the shorthand bodies never
// spell.
func goldenRequests(t testing.TB) []wireBody {
	t.Helper()
	raw, err := os.ReadFile("../../bench/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var probes []struct{ Body string }
	if err := json.Unmarshal(raw, &probes); err != nil || len(probes) == 0 {
		t.Fatalf("golden.json: %d probes, %v", len(probes), err)
	}
	var out []wireBody
	for _, p := range probes {
		out = append(out, wireBody{"advise", p.Body})
	}
	for _, body := range []string{
		adviseBody("mv1", `"budget":25,"solver":"search","seed":42`),
		adviseBody("mv2", `"limit":"4h","solver":"search","seed":7`),
		adviseBody("mv3", `"alpha":0.5,"solver":"search","seed":3`),
		adviseBody("pareto", `"steps":5,"solver":"search","seed":5`),
		adviseBody("mv1", `"budget":25`),
		adviseBody("mv1", `"budget":0.01`),
		string(benchBody),
		adviseShapeBody,
		`{"scenario":"mv3","alpha":0.8123,"workload":[{"levels":["year","country"],"frequency":30},{"point":[1,2]},{"name":"grand total","levels":["all","all"],"point":[0,0]}]}`,
		`{"budget":"$12.50","maintenance_policy":"deferred","job_overhead":"90s","update_ratio":0.35,"maintenance_runs":2,"candidate_budget":6,"instance_type":"large","months":0.5}`,
		`{"budget":25,"provider_spec":` + tinyTariff + `}`,
	} {
		out = append(out, wireBody{"advise", body})
	}
	for _, body := range []string{
		string(compareMiss2x2Body(0)),
		string(compareBenchBody),
		compareShapeBody,
		sweepBody(`"limit":"4h","scenarios":["mv1","mv2","mv3","pareto"],"steps":5`),
		sweepBody(`"instance_types":["small","xlarge"],"break_even_steps":-1`),
		sweepBody(`"solver":"search","seed":42,"providers":["aws-2012"],"fleet_sizes":[5]`),
		`{"alpha":0.25,"workload":[{"levels":["month","region"]},{"point":[3,3],"frequency":4}],"fleet_sizes":[5,3,3]}`,
	} {
		out = append(out, wireBody{"compare", body})
	}
	for _, body := range []string{
		sweepBody(`"fleet_sizes":[3,5]`),
		`{"alpha":0.65,"fleet_sizes":[5],"fact_rows":10000000,"solver":"search","seed":42}`,
		sweepBody(`"instance_types":["small","xlarge"]`),
		sweepShapeBody,
		`{"scenario":"mv2","limit":"90m","workload":[{"levels":["day","department"]}],"providers":["stratus","aws-2012"]}`,
	} {
		out = append(out, wireBody{"sweep", body})
	}
	return out
}

const tinyTariff = `{"name":"tiny","compute":{"granularity":"per-hour","instances":[{"name":"small","price_per_hour":"$0.10","ecu":1}]},"storage":{"mode":"slab","tiers":[{"price_per_gb":"$0.10"}]},"transfer":{"ingress_free":true,"egress":{"mode":"graduated","tiers":[{"price_per_gb":"$0.10"}]}}}`

// writtenDefaults are members a client may write out without changing
// the problem (bench/gen.go's adviseDefaults), per endpoint.
func writtenDefaults(endpoint string) []wiretest.Member {
	ds := []wiretest.Member{
		{Name: "candidate_budget", Value: "8"},
		{Name: "maintenance_runs", Value: "4"},
		{Name: "update_ratio", Value: "0.2"},
		{Name: "maintenance_policy", Value: `"immediate"`},
		{Name: "job_overhead", Value: `"2m"`},
		{Name: "solver", Value: `"knapsack"`},
	}
	if endpoint == "advise" {
		ds = append(ds, wiretest.Member{Name: "instance_type", Value: `"small"`})
	}
	return ds
}

// wireOf returns the request struct inside req, as reset does, without
// zeroing it.
func wireOf(req memoRequest) any {
	switch r := req.(type) {
	case *adviseRequest:
		return &r.AdviseRequest
	case *compareRequest:
		return &r.RequestJSON
	default:
		return &req.(*sweepRequest).SweepRequestJSON
	}
}

// fastDecode runs the hand-written decoder alone and reports whether it
// accepted src.
func fastDecode(src string, req memoRequest) bool {
	return req.decode(src)
}

// checkDecode holds the hand-written decoder of one endpoint to
// encoding/json on src: what it accepts, strictDecode accepts and reads
// into an equal struct. What it declines is strictDecode's to decide,
// so there is nothing to compare. It reports whether src was accepted.
func checkDecode(t testing.TB, endpoint, src string) bool {
	t.Helper()
	fast := newMemoRequest(endpoint)
	if !fastDecode(src, fast) {
		return false
	}
	ref := newMemoRequest(endpoint)
	if err := strictDecode(src, ref.reset()); err != nil {
		t.Errorf("%s: the fast grammar accepted a body encoding/json rejects (%v):\n%s", endpoint, err, src)
		return true
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Errorf("%s: decoders disagree on\n%s\nfast:          %+v\nencoding/json: %+v", endpoint, src, fast, ref)
	}
	return true
}

// TestDecodeMatchesEncodingJSON is the differential test of the request
// decoders: the committed bodies, seeded re-spellings of each (member
// order, whitespace, defaults written out) and their canonical keys
// must all be accepted, and read as encoding/json reads them; seeded
// hostile bodies may be declined, never read differently. Every body
// goes to all three endpoints' decoders, so each also sees the other
// endpoints' members.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	s := testServer()
	rng := rand.New(rand.NewSource(21))
	hostile, hostileAccepted := 0, 0
	for _, g := range goldenRequests(t) {
		spellings := []string{g.body}
		for i := 0; i < 20; i++ {
			spellings = append(spellings, string(wiretest.Respell(rng, []byte(g.body), writtenDefaults(g.endpoint)...)))
		}
		key, _, err := s.endpoint(g.endpoint).canonicalize(nil, g.body, newMemoRequest(g.endpoint))
		if err != nil {
			t.Fatalf("%s: %v", g.body, err)
		}
		spellings = append(spellings, string(key))
		for _, src := range spellings {
			if !checkDecode(t, g.endpoint, src) {
				t.Errorf("%s: the fast grammar declined a well-spelled body:\n%s", g.endpoint, src)
			}
			for _, other := range memoizedEndpoints {
				checkDecode(t, other, src)
			}
			for i := 0; i < 15; i++ {
				h := string(wiretest.Hostile(rng, []byte(src)))
				for _, e := range memoizedEndpoints {
					if accepted := checkDecode(t, e, h); e == g.endpoint {
						hostile++
						if accepted {
							hostileAccepted++
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d hostile bodies inside the fast grammar", hostileAccepted, hostile)
	// Both sides of the decline rule have to be exercised for the test to
	// mean anything.
	if hostileAccepted < hostile/20 || hostileAccepted > hostile*19/20 {
		t.Errorf("%d of %d hostile bodies accepted: the generator no longer straddles the grammar", hostileAccepted, hostile)
	}
	if n := s.endpoint("advise").decodeFallback.Value(); n != 0 {
		t.Errorf("%d golden bodies took the encoding/json path", n)
	}
}

// TestDeclineRule pins each form the fast grammar leaves to
// encoding/json, and that the served answer is what encoding/json makes
// of it.
func TestDeclineRule(t *testing.T) {
	for name, c := range map[string]struct {
		body   string
		status int
	}{
		"case-folded name": {`{"Scenario":"mv1","budget":25,"fact_rows":10000000}`, 200},
		"escaped name":     {`{"\u0073cenario":"mv1","budget":25,"fact_rows":10000000}`, 200},
		"duplicate name":   {`{"budget":1,"budget":25,"fact_rows":10000000}`, 200},
		"null":             {`{"scenario":null,"budget":25,"fact_rows":10000000}`, 200},
		"escaped string":   {`{"scenario":"mv\u0031","budget":25,"fact_rows":10000000}`, 200},
		"exponent integer": {`{"budget":25,"fact_rows":1e7}`, 400},
		"19-digit integer": {`{"budget":25,"seed":1234567890123456789,"fact_rows":10000000}`, 200},
		"huge float":       {`{"budget":25,"months":1e999}`, 400},
		"unknown name":     {`{"budget":25,"bogus":1}`, 400},
		"bad money":        {`{"budget":"lots"}`, 400},
	} {
		s := testServer()
		if fastDecode(c.body, &adviseRequest{}) {
			t.Errorf("%s: accepted by the fast grammar", name)
		}
		w := do(t, s, "POST", "/v1/advise", c.body)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", name, w.Code, c.status, w.Body.String())
		}
		if n := s.endpoint("advise").decodeFallback.Value(); n != 1 {
			t.Errorf("%s: fallback counter = %d, want 1", name, n)
		}
	}
}

// marshalReference is the parent commit's canonical key: encoding/json
// alone, in and out.
func marshalReference(t testing.TB, s *Server, endpoint, body string) []byte {
	t.Helper()
	req := newMemoRequest(endpoint)
	v := req.reset()
	if err := strictDecode(body, v); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	_, err := req.normalize()
	if err == nil {
		err = s.endpoint(endpoint).checkCeilings(req)
	}
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	key, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// checkKey holds AppendKey to json.Marshal over the struct tags and to
// the method-less reflection reference, on one request struct.
func checkKey(t testing.TB, what string, req memoRequest, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got, err := req.AppendKey([]byte("prefix"))
	if err != nil || string(got) != "prefix"+string(want) {
		t.Fatalf("%s: AppendKey differs from json.Marshal (err %v):\ngot:  %s\nwant: prefix%s", what, err, got, want)
	}
	if ref, err := wiretest.Reference(reflect.ValueOf(v).Elem().Interface()); err != nil || !bytes.Equal(ref, want) {
		t.Fatalf("%s: json.Marshal differs from the reflection reference (err %v):\ngot:  %s\nwant: %s", what, err, want, ref)
	}
}

func randomConfig(rng *rand.Rand) core.ConfigJSON {
	opt := func() bool { return rng.Intn(3) > 0 }
	var cj core.ConfigJSON
	if opt() {
		cj.Provider = wiretest.String(rng)
	}
	switch rng.Intn(4) {
	case 0:
		cj.ProviderSpec = json.RawMessage(tinyTariff)
	case 1:
		var indented bytes.Buffer
		json.Indent(&indented, []byte(`{"name":"<&>  \" \\","tiers":[ ],"n":[1, 2.5e-7,null,true]}`), "", "  ")
		cj.ProviderSpec = indented.Bytes()
	}
	if opt() {
		cj.InstanceType = wiretest.String(rng)
	}
	if opt() {
		cj.Instances = rng.Intn(9) - 2
	}
	if opt() {
		cj.FactRows = rng.Int63() - rng.Int63()
	}
	if opt() {
		cj.Months = wiretest.Float(rng)
	}
	if opt() {
		cj.Queries = rng.Intn(12)
	}
	if opt() {
		cj.Frequency = rng.Intn(50) - 5
	}
	for n := rng.Intn(4); n > 0; n-- {
		var q workload.QueryJSON
		if opt() {
			q.Name = wiretest.String(rng)
		}
		switch rng.Intn(3) {
		case 0:
			q.Levels = []string{}
		case 1:
			q.Levels = []string{wiretest.String(rng), "country"}
		}
		switch rng.Intn(3) {
		case 0:
			q.Point = []int{}
		case 1:
			q.Point = []int{rng.Intn(5) - 1, rng.Intn(5)}
		}
		if opt() {
			q.Frequency = rng.Intn(40) - 3
		}
		cj.Workload = append(cj.Workload, q)
	}
	if opt() {
		cj.CandidateBudget = rng.Intn(20) - 2
	}
	if opt() {
		cj.MaintenanceRuns = rng.Intn(9) - 1
	}
	if opt() {
		cj.UpdateRatio = wiretest.Float(rng)
	}
	if opt() {
		cj.MaintenancePolicy = wiretest.String(rng)
	}
	if opt() {
		cj.JobOverhead = wiretest.String(rng)
	}
	if opt() {
		cj.Solver = wiretest.String(rng)
	}
	if opt() {
		cj.Seed = rng.Int63() - rng.Int63()
	}
	return cj
}

func randomStrings(rng *rand.Rand) []string {
	switch n := rng.Intn(4); n {
	case 0:
		return nil
	case 1:
		return []string{}
	default:
		out := make([]string, n)
		for i := range out {
			out[i] = wiretest.String(rng)
		}
		return out
	}
}

func randomParams(rng *rand.Rand) (budget *money.Money, limit string, alpha *float64) {
	if rng.Intn(2) == 0 {
		m := wiretest.Money(rng)
		budget = &m
	}
	if rng.Intn(2) == 0 {
		limit = wiretest.String(rng)
	}
	if rng.Intn(2) == 0 {
		a := wiretest.Float(rng)
		alpha = &a
	}
	return
}

// TestAppendKeyMatchesReflection holds the key encoders to
// encoding/json: AppendKey ≡ json.Marshal(req) ≡ wiretest.Reference, on
// the committed requests canonicalized — where the key must also be the
// one the parent commit's all-encoding/json path made, since cache
// keys, ring placement and forwarded bodies are pinned to it — and on
// seeded hostile structs no request normalizes to.
func TestAppendKeyMatchesReflection(t *testing.T) {
	s := testServer()
	rng := rand.New(rand.NewSource(21))
	for _, g := range goldenRequests(t) {
		want := marshalReference(t, s, g.endpoint, g.body)
		spellings := []string{g.body}
		for i := 0; i < 5; i++ {
			spellings = append(spellings, string(wiretest.Respell(rng, []byte(g.body), writtenDefaults(g.endpoint)...)))
		}
		// A canonical key is a fixed point: canonicalized again (a cluster
		// worker does, to a forwarded body) it is itself.
		spellings = append(spellings, string(want))
		for _, src := range spellings {
			req := newMemoRequest(g.endpoint)
			got, _, err := s.endpoint(g.endpoint).canonicalize(nil, src, req)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: canonical key differs from the encoding/json path's (err %v):\nbody: %s\ngot:  %s\nwant: %s", g.endpoint, err, src, got, want)
			}
			checkKey(t, src, req, wireOf(req))
		}
	}
	for i := 0; i < 500; i++ {
		a := &adviseRequest{AdviseRequest{Scenario: wiretest.String(rng), Steps: rng.Intn(5) - 1, ConfigJSON: randomConfig(rng)}}
		a.Budget, a.Limit, a.Alpha = randomParams(rng)
		checkKey(t, "random advise request", a, &a.AdviseRequest)

		c := &compareRequest{compare.RequestJSON{
			Scenarios: randomStrings(rng), Steps: rng.Intn(5) - 1, Providers: randomStrings(rng), InstanceTypes: randomStrings(rng),
			BreakEvenSteps: rng.Intn(5) - 2, ConfigJSON: randomConfig(rng),
		}}
		c.Budget, c.Limit, c.Alpha = randomParams(rng)
		for n := rng.Intn(4); n > 0; n-- {
			c.FleetSizes = append(c.FleetSizes, rng.Intn(9)-2)
		}
		checkKey(t, "random compare request", c, &c.RequestJSON)

		w := &sweepRequest{compare.SweepRequestJSON{
			Scenario: wiretest.String(rng), Providers: randomStrings(rng), InstanceTypes: randomStrings(rng), ConfigJSON: randomConfig(rng),
		}}
		w.Budget, w.Limit, w.Alpha = randomParams(rng)
		if rng.Intn(2) == 0 {
			w.FleetSizes = []int{}
		}
		checkKey(t, "random sweep request", w, &w.SweepRequestJSON)
	}
	if n := s.endpoint("advise").decodeFallback.Value(); n != 0 {
		t.Errorf("%d golden bodies took the encoding/json path", n)
	}
}

// TestCanonicalKeyGolden pins the canonical key of every committed
// request to testdata/canonical_keys.golden, one "<endpoint> <key>" line
// each. TestAppendKeyMatchesReflection holds AppendKey to json.Marshal
// of the same normalized struct, so a Normalize that changed the struct
// would move both sides together; this is the bytes themselves, which
// cache keys, ring placement and forwarded bodies are pinned to.
func TestCanonicalKeyGolden(t *testing.T) {
	s := testServer()
	var got []byte
	for _, g := range goldenRequests(t) {
		got = append(got, g.endpoint...)
		got = append(got, ' ')
		var err error
		if got, _, err = s.endpoint(g.endpoint).canonicalize(got, g.body, newMemoRequest(g.endpoint)); err != nil {
			t.Fatalf("%s: %v", g.body, err)
		}
		got = append(got, '\n')
	}
	checkGolden(t, "canonical_keys", got)
}

// corpusEntries reads the []byte values of a committed go-fuzz corpus
// directory.
func corpusEntries(t testing.TB, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: %d corpus files, %v", dir, len(files), err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
			t.Fatalf("%s: not a go-fuzz corpus file", f)
		}
		for _, line := range lines[1:] {
			lit, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue // another argument type of a multi-argument target
			}
			v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			out = append(out, []byte(v))
		}
	}
	return out
}

// FuzzDecodeRequest fuzzes the differential property of
// TestDecodeMatchesEncodingJSON on all three decoders, and one more: a
// body both paths accept canonicalizes to the same key either way.
// Beside its own corpus it replays the committed corpora of
// FuzzConfigJSONNormalize and FuzzSweepRequestNormalize, which were
// grown against the canonicalization the decoders feed.
func FuzzDecodeRequest(f *testing.F) {
	for _, g := range goldenRequests(f) {
		f.Add([]byte(g.body))
	}
	for _, dir := range []string{"../core/testdata/fuzz/FuzzConfigJSONNormalize", "../compare/testdata/fuzz/FuzzSweepRequestNormalize"} {
		for _, e := range corpusEntries(f, dir) {
			f.Add(e)
		}
	}
	s := testServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		for _, e := range memoizedEndpoints {
			if !checkDecode(t, e, src) {
				continue
			}
			fast := newMemoRequest(e)
			key, _, err := s.endpoint(e).canonicalize(nil, src, fast)
			ref := newMemoRequest(e)
			v := ref.reset()
			if serr := strictDecode(src, v); serr != nil {
				t.Fatalf("%s: strict decode of an accepted body: %v", e, serr)
			}
			_, nerr := ref.normalize()
			if nerr == nil {
				nerr = s.endpoint(e).checkCeilings(ref)
			}
			if (err == nil) != (nerr == nil) || (err != nil && err.Error() != nerr.Error()) {
				t.Fatalf("%s: canonicalize says %v, the encoding/json path %v, on\n%s", e, err, nerr, src)
			}
			if err != nil {
				continue
			}
			if want, _ := json.Marshal(v); !bytes.Equal(key, want) {
				t.Fatalf("%s: keys differ on\n%s\nfast:          %s\nencoding/json: %s", e, src, key, want)
			}
		}
	})
}

// TestTrailingBytesRejected is the regression test for bodies with
// something after the request: they were answered 200 (Decoder.Decode
// reads one value and stops) and memoized under a raw key holding the
// garbage. They are 400s now, worded as json.Unmarshal words them, on
// all three endpoints, and leave nothing in either cache.
func TestTrailingBytesRejected(t *testing.T) {
	for _, c := range []struct{ path, body string }{
		{"/v1/advise", `{"scenario":"mv1","budget":25,"fact_rows":10000000}`},
		{"/v1/compare", sweepBody(`"fleet_sizes":[3]`)},
		{"/v1/sweep", sweepBody(`"fleet_sizes":[3]`)},
	} {
		for trailer, char := range map[string]string{`{"budget":1}`: "{", ` garbage`: "g", "\n]": "]", `,`: ",", "\x00": `\x00`} {
			s := testServer()
			w := do(t, s, "POST", c.path, c.body+trailer)
			msg, _ := json.Marshal(map[string]string{"error": fmt.Sprintf("parse request: invalid character '%s' after top-level value", char)})
			want := string(msg) + "\n"
			if w.Code != 400 || w.Body.String() != want {
				t.Errorf("%s %q: %d %s, want 400 %s", c.path, trailer, w.Code, w.Body.String(), want)
			}
			if s.cache.Len() != 0 || s.rawKeys.Len() != 0 {
				t.Errorf("%s %q: a rejected body left %d responses and %d raw keys cached", c.path, trailer, s.cache.Len(), s.rawKeys.Len())
			}
		}
		// Whitespace after the body is still a body.
		if w := do(t, testServer(), "POST", c.path, c.body+" \r\n\t"); w.Code != 200 {
			t.Errorf("%s: trailing whitespace: %d %s", c.path, w.Code, w.Body.String())
		}
	}
}

// TestDecodeFallbackCounter reads the traffic instead of guessing it:
// mvcloud_request_decode_fallback_total stays 0 through the golden
// requests and a seeded batch of bench-shaped re-spellings — none of
// the served 200s went through encoding/json — and counts a case-folded
// member name.
func TestDecodeFallbackCounter(t *testing.T) {
	s := testServer()
	rng := rand.New(rand.NewSource(7))
	paths := map[string]string{"advise": "/v1/advise", "compare": "/v1/compare", "sweep": "/v1/sweep"}
	for _, g := range goldenRequests(t) {
		bodies := []string{g.body}
		for i := 0; i < 4; i++ {
			bodies = append(bodies, string(wiretest.Respell(rng, []byte(g.body), writtenDefaults(g.endpoint)...)))
		}
		for _, body := range bodies {
			if w := do(t, s, "POST", paths[g.endpoint], body); w.Code != 200 {
				t.Fatalf("%s: %d %s", body, w.Code, w.Body.String())
			}
		}
	}
	for _, e := range s.endpoints {
		if n := e.decodeFallback.Value(); n != 0 {
			t.Errorf("fallback counter = %d after well-spelled traffic, want 0", n)
		}
	}
	if w := do(t, s, "POST", "/v1/sweep", `{"Budget":25,"fact_rows":10000000,"queries":5}`); w.Code != 200 {
		t.Fatalf("case-folded body: %d %s", w.Code, w.Body.String())
	}
	if a, c, w := s.endpoint("advise").decodeFallback.Value(), s.endpoint("compare").decodeFallback.Value(), s.endpoint("sweep").decodeFallback.Value(); a != 0 || c != 0 || w != 1 {
		t.Errorf("fallback counters advise %d compare %d sweep %d after one case-folded sweep body, want 0 0 1", a, c, w)
	}
	page := do(t, s, "GET", "/metrics", "").Body.String()
	for _, line := range []string{
		`mvcloud_request_decode_fallback_total{endpoint="advise"} 0`,
		`mvcloud_request_decode_fallback_total{endpoint="sweep"} 1`,
	} {
		if !strings.Contains(page, line) {
			t.Errorf("/metrics lacks %s", line)
		}
	}
}
