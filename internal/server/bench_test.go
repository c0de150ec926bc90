package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// The acceptance bar for the serving layer: an advise request answered
// from the response cache must be at least an order of magnitude faster than
// the cold path (advisor construction + candidate generation + knapsack
// solve + response marshaling). Run with:
//
//	go test ./internal/server -bench BenchmarkAdvise -benchmem

var benchBody = []byte(`{"scenario":"mv1","budget":25,"queries":10,"frequency":30}`)

func postAdvise(b *testing.B, s *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/advise", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	return w
}

// BenchmarkAdviseCold measures the uncached path on one server: every
// iteration posts a distinct problem (benchBody at fact_rows + i), so
// the full lattice + candidates + DP + encode pipeline runs each time,
// and the server's own construction stays out of the loop.
func BenchmarkAdviseCold(b *testing.B) {
	s := New(Options{})
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = fmt.Appendf(body[:0], `{"scenario":"mv1","budget":25,"queries":10,"frequency":30,"fact_rows":%d}`, 200_000_000+i)
		if w := postAdvise(b, s, body); w.Header().Get("X-Cache") != "miss" {
			b.Fatalf("iteration %d: X-Cache %q, want a miss", i, w.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkAdviseCacheHit measures the memoized path: one server, the
// cache primed, every timed iteration is an identical request.
func BenchmarkAdviseCacheHit(b *testing.B) {
	s := New(Options{})
	w := postAdvise(b, s, benchBody)
	if w.Header().Get("X-Cache") != "miss" {
		b.Fatal("prime request did not miss")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := postAdvise(b, s, benchBody)
		if w.Header().Get("X-Cache") != "hit" {
			b.Fatal("hit path fell through to a solve")
		}
	}
}

// BenchmarkTariffs measures GET /v1/tariffs, which renders every catalog
// provider. The pricing catalog is built once per process and handed out
// as cheap deep copies, so this no longer reconstructs every fixture
// (with its ~60 money.MustParse calls) per request.
func BenchmarkTariffs(b *testing.B) {
	s := New(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/v1/tariffs", nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
}

var compareBenchBody = []byte(`{"budget":25,"limit":"4h","queries":10,"frequency":30,"fact_rows":50000000}`)

func postCompare(b *testing.B, s *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/compare", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != 200 {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	return w
}

// BenchmarkCompareCold measures the uncached cross-provider grid on one
// server: every iteration posts a distinct problem (compareBenchBody at
// fact_rows + i), so the full catalog grid is solved each time, and the
// server's own construction stays out of the loop.
func BenchmarkCompareCold(b *testing.B) {
	s := New(Options{})
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = fmt.Appendf(body[:0], `{"budget":25,"limit":"4h","queries":10,"frequency":30,"fact_rows":%d}`, 50_000_000+i)
		if w := postCompare(b, s, body); w.Header().Get("X-Cache") != "miss" {
			b.Fatalf("iteration %d: X-Cache %q, want a miss", i, w.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkCompareCacheHit measures the memoized comparison path.
func BenchmarkCompareCacheHit(b *testing.B) {
	s := New(Options{})
	w := postCompare(b, s, compareBenchBody)
	if w.Header().Get("X-Cache") != "miss" {
		b.Fatal("prime request did not miss")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := postCompare(b, s, compareBenchBody)
		if w.Header().Get("X-Cache") != "hit" {
			b.Fatal("hit path fell through to a solve")
		}
	}
}

// BenchmarkAdviseCacheHitWithMetrics measures the hit path while a
// scraper hammers /metrics from another goroutine, so a future
// exposition change that makes scraping contend with serving (a lock on
// the record path, say) shows up as an ns/op regression here rather
// than as mystery tail latency in production. Exposition reads the same atomics the hot path writes and
// takes only the registration mutex, which Observe/Inc never touch.
func BenchmarkAdviseCacheHitWithMetrics(b *testing.B) {
	s := New(Options{})
	w := postAdvise(b, s, benchBody)
	if w.Header().Get("X-Cache") != "miss" {
		b.Fatal("prime request did not miss")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				req := httptest.NewRequest("GET", "/metrics", nil)
				s.ServeHTTP(httptest.NewRecorder(), req)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := postAdvise(b, s, benchBody)
		if w.Header().Get("X-Cache") != "hit" {
			b.Fatal("hit path fell through to a solve")
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkMetricsExposition measures one full /metrics render on a
// server with every series registered — the page a Prometheus scraper
// pulls every 15s must stay cheap enough to be invisible.
func BenchmarkMetricsExposition(b *testing.B) {
	s := New(Options{})
	postAdvise(b, s, benchBody) // populate at least one solve's series
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/metrics", nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != 200 {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkAdviseCacheMissDistinct measures the steady-state miss path on
// a warm server: each iteration is a distinct config (unique frequency),
// so lattice construction and the solve run every time but server setup
// does not.
func BenchmarkAdviseCacheMissDistinct(b *testing.B) {
	s := New(Options{CacheSize: 1}) // keep the cache from absorbing the sweep
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body := fmt.Appendf(nil, `{"scenario":"mv1","budget":25,"queries":10,"frequency":%d}`, i%1000+1)
		postAdvise(b, s, body)
	}
}

// BenchmarkClusterAdviseCacheHitHot measures the cluster frontend's
// warm hit path with a reused request and response writer — it must
// report 0 allocs/op, identical to the single-node benchmark, because
// routing never touches warm keys.
func BenchmarkClusterAdviseCacheHitHot(b *testing.B) {
	lc := NewLocalCluster(LocalClusterOptions{
		Workers: 2,
	})
	defer lc.Close()
	w := postAdvise(b, lc.Frontend, benchBody)
	if w.Header().Get("X-Cache") != "miss" {
		b.Fatal("prime request did not miss")
	}
	body := &resettableBody{}
	req := &http.Request{
		Method: "POST",
		URL:    &url.URL{Path: "/v1/advise"},
		Body:   body,
	}
	nw := &nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(benchBody)
		lc.Frontend.ServeHTTP(nw, req)
		if nw.status != 200 {
			b.Fatalf("status %d", nw.status)
		}
	}
}

// compareMiss2x2Body is the named load-compare-2x2 shape — the compare
// request the repo benchmark's compare-cold workload sends: 2 providers
// × fleets {3,5}, budget + limit + alpha → mv1/mv2/mv3 on the 16-cuboid
// lattice plus the 8-step break-even sweep. n perturbs fact_rows, so
// every n is a distinct canonical problem.
func compareMiss2x2Body(n int) []byte {
	return fmt.Appendf(nil, `{"budget":25,"limit":"4h","alpha":0.8,"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"fact_rows":%d,"queries":10,"frequency":30}`, 50_000_000+n)
}

// BenchmarkCompareMiss2x2 measures a whole load-compare-2x2 miss through
// ServeHTTP on a warm server: decode, canonicalize, four cells × three
// scenarios, the break-even sweep, and the 21 KB encode.
func BenchmarkCompareMiss2x2(b *testing.B) {
	s := New(Options{CacheSize: 1})
	w := postCompare(b, s, compareMiss2x2Body(0))
	b.SetBytes(int64(w.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postCompare(b, s, compareMiss2x2Body(1+i%100_000))
	}
}

// BenchmarkSweepMiss2x2 is the same for TestMissAllocBudget's sweep-2x2
// problem: one objective re-priced over four cells.
func BenchmarkSweepMiss2x2(b *testing.B) {
	s := New(Options{CacheSize: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body := fmt.Appendf(nil, `{"budget":25,"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"fact_rows":%d,"queries":10,"frequency":30}`, 50_000_000+i%100_000)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// The request half, on the repo benchmark's body shapes (bench/gen.go):
// what a re-spelled hit and every miss pay before any solver runs.
// BenchmarkCanon* is bytes to canonical key in-process (decode,
// normalize, AppendKey), which every miss pays, a re-miss after eviction
// and a cluster worker's forwarded body included;
// BenchmarkAdviseCanonicalHit is a whole re-spelled hit through
// ServeHTTP.
var (
	adviseShapeBody  = `{"scenario":"mv1","budget":"$31.25","provider":"cumulus","instances":4,"fact_rows":73412088,"queries":7,"frequency":12,"months":6}`
	compareShapeBody = `{"budget":"$31.25","limit":"3h12m5s","alpha":0.8123,"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"fact_rows":73412088,"queries":7,"frequency":12,"months":6}`
	sweepShapeBody   = `{"budget":"$31.25","providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"fact_rows":73412088,"queries":7,"frequency":12,"months":6}`
)

func benchCanon(b *testing.B, endpoint, body string) {
	s := New(Options{})
	buf := make([]byte, 0, 4096)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// As served: a fresh request per body, and string(...) for the
		// copy out of the pooled buffer.
		if _, _, err := s.endpoint(endpoint).canonicalize(buf, string([]byte(body)), newMemoRequest(endpoint)); err != nil {
			b.Fatal(err)
		}
	}
	if n := s.endpoint("advise").decodeFallback.Value(); n != 0 {
		b.Fatalf("%d bodies took the encoding/json path", n)
	}
}

func BenchmarkCanonAdvise(b *testing.B)  { benchCanon(b, "advise", adviseShapeBody) }
func BenchmarkCanonCompare(b *testing.B) { benchCanon(b, "compare", compareShapeBody) }
func BenchmarkCanonSweep(b *testing.B)   { benchCanon(b, "sweep", sweepShapeBody) }

// respellings returns n byte-different spellings of one body: the i-th
// carries i, in binary, as spaces and tabs before the closing brace.
func respellings(body string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := []byte(body[:len(body)-1])
		for bit := 1; bit < n; bit <<= 1 {
			if i&bit != 0 {
				b = append(b, '\t')
			} else {
				b = append(b, ' ')
			}
		}
		out[i] = append(b, '}')
	}
	return out
}

func BenchmarkAdviseCanonicalHit(b *testing.B) {
	s := New(Options{})
	postAdvise(b, s, []byte(adviseShapeBody))
	// More spellings than the raw-key cache holds, cycled: every request
	// misses it and hits the response cache under the canonical key.
	spellings := respellings(adviseShapeBody, 1024)
	body := &resettableBody{}
	req := &http.Request{Method: "POST", URL: &url.URL{Path: "/v1/advise"}, Body: body}
	nw := &nullResponseWriter{h: make(http.Header)}
	b.SetBytes(int64(len(spellings[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(spellings[i%len(spellings)])
		s.ServeHTTP(nw, req)
		if nw.status != 200 || nw.h.Get("X-Cache") != "hit" {
			b.Fatalf("status %d, X-Cache %q", nw.status, nw.h.Get("X-Cache"))
		}
	}
	if n := s.endpoint("advise").decodeFallback.Value(); n != 0 {
		b.Fatalf("%d bodies took the encoding/json path", n)
	}
}
