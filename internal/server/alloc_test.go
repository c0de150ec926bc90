package server

import (
	"bytes"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// nullResponseWriter is a reusable ResponseWriter that retains nothing,
// so a measurement loop sees only the handler stack's own allocations.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(s int)   { w.status = s }
func (w *nullResponseWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// resettableBody replays the same request body without reallocating.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// TestCacheHitAllocBudget pins the zero-alloc claim for the cache-hit
// fast path: a byte-identical repeat of a cached request must cost no
// heap allocation at all end to end through ServeHTTP (pooled read
// buffer, byte-keyed cache probes, interned labels, shared header values,
// response written straight from cache-owned bytes), on all three
// memoized endpoints. bench/ reports the same number as
// server.hit_allocs; this test is the gate that keeps it at zero.
func TestCacheHitAllocBudget(t *testing.T) {
	for _, c := range []struct {
		endpoint string
		body     string
	}{
		{"/v1/advise", adviseBody("mv1", `"budget":25`)},
		{"/v1/compare", sweepBody(`"fleet_sizes":[3]`)},
		{"/v1/sweep", sweepBody(`"fleet_sizes":[3]`)},
	} {
		t.Run(c.endpoint, func(t *testing.T) {
			s := testServer()
			if w := do(t, s, "POST", c.endpoint, c.body); w.Code != 200 {
				t.Fatalf("prime: %d: %s", w.Code, w.Body.String())
			}
			// Confirm the repeat actually takes the hit path before timing.
			if w := do(t, s, "POST", c.endpoint, c.body); w.Header().Get("X-Cache") != "hit" {
				t.Fatalf("repeat X-Cache = %q, want hit", w.Header().Get("X-Cache"))
			}

			body, raw := &resettableBody{}, []byte(c.body)
			req := &http.Request{
				Method: "POST",
				URL:    &url.URL{Path: c.endpoint},
				Body:   body,
			}
			w := &nullResponseWriter{h: make(http.Header)}
			allocs := testing.AllocsPerRun(200, func() {
				body.Reset(raw)
				w.status = 0
				s.ServeHTTP(w, req)
				if w.status != 200 {
					t.Fatalf("status %d on hit path", w.status)
				}
			})
			if allocs > 0 {
				t.Errorf("cache-hit path costs %.1f allocs/request, budget 0", allocs)
			}
		})
	}
}

// BenchmarkAdviseCacheHitHot is the allocation-visible twin of
// BenchmarkAdviseCacheHit: it reuses the request and response writer so
// -benchmem shows the handler stack's own hit-path allocations rather
// than httptest recorder churn.
func BenchmarkAdviseCacheHitHot(b *testing.B) {
	s := New(Options{})
	w := postAdvise(b, s, benchBody)
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
		s.ServeHTTP(nw, req)
		if nw.status != 200 {
			b.Fatalf("status %d", nw.status)
		}
	}
}

// TestClusterFrontendCacheHitAllocBudget pins the same zero-alloc
// budget for a cluster frontend's hit path: routing only touches cold
// keys, so a warm repeat must cost exactly what a single-node hit does
// — the ring, health tracker and transport stay entirely off the path.
func TestClusterFrontendCacheHitAllocBudget(t *testing.T) {
	lc := NewLocalCluster(LocalClusterOptions{
		Workers: 2,
	})
	defer lc.Close()
	bodyStr := adviseBody("mv1", `"budget":25`)
	if w := do(t, lc.Frontend, "POST", "/v1/advise", bodyStr); w.Code != 200 {
		t.Fatalf("prime: %d: %s", w.Code, w.Body.String())
	}
	if w := do(t, lc.Frontend, "POST", "/v1/advise", bodyStr); w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", w.Header().Get("X-Cache"))
	}

	body := &resettableBody{}
	req := &http.Request{
		Method: "POST",
		URL:    &url.URL{Path: "/v1/advise"},
		Body:   body,
	}
	w := &nullResponseWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		body.Reset([]byte(bodyStr))
		w.status = 0
		lc.Frontend.ServeHTTP(w, req)
		if w.status != 200 {
			t.Fatalf("status %d on hit path", w.status)
		}
	})
	if allocs > 2 {
		t.Errorf("cluster-frontend hit path costs %.1f allocs/request, budget 2", allocs)
	}
}

// TestCanonicalHitAllocBudget gates the re-spelled hit beside the
// byte-identical one: a body never seen before whose canonical key is
// resident — decode, normalize, AppendKey into the pooled buffer, one
// copy-free probe, the raw key remembered — on all three endpoints. The
// advise one cost 84 allocations with encoding/json, a lattice and a
// provider copy on the way; budgets are the measured figures + 5%.
func TestCanonicalHitAllocBudget(t *testing.T) {
	for _, c := range []struct {
		endpoint, body string
		budget         float64
	}{
		{"/v1/advise", adviseShapeBody, 10.5},    // 10
		{"/v1/compare", compareShapeBody, 19.95}, // 19
		{"/v1/sweep", sweepShapeBody, 16.8},      // 16
	} {
		t.Run(c.endpoint, func(t *testing.T) {
			s := testServer()
			if w := do(t, s, "POST", c.endpoint, c.body); w.Code != 200 {
				t.Fatalf("prime: %d: %s", w.Code, w.Body.String())
			}
			spellings := respellings(c.body, 1024)
			body := &resettableBody{}
			req := &http.Request{Method: "POST", URL: &url.URL{Path: c.endpoint}, Body: body}
			w := &nullResponseWriter{h: make(http.Header)}
			n := 0
			allocs := testing.AllocsPerRun(200, func() {
				body.Reset(spellings[n])
				n++
				w.status = 0
				s.ServeHTTP(w, req)
				if w.status != 200 || w.h.Get("X-Cache") != "hit" {
					t.Fatalf("status %d, X-Cache %q; want a 200 hit", w.status, w.h.Get("X-Cache"))
				}
			})
			if allocs > c.budget {
				t.Errorf("re-spelled hit costs %.1f allocs/request, budget %.1f", allocs, c.budget)
			}
			if n := s.endpoint("advise").decodeFallback.Value() + s.endpoint("compare").decodeFallback.Value() + s.endpoint("sweep").decodeFallback.Value(); n != 0 {
				t.Errorf("%d bodies took the encoding/json path", n)
			}
		})
	}
}

// TestPoolsDropLargeBuffers is the regression test for the request and
// encode pools keeping whatever a buffer grew to: a body at the 1 MiB
// request cap, then a small one, must leave no buffer of that size
// reachable from the pool. (sync.Pool may also drop buffers by itself;
// before the fix this test failed whenever it did not.)
func TestPoolsDropLargeBuffers(t *testing.T) {
	s := testServer()
	small := `{"scenario":"mv1","budget":25,"fact_rows":10000000}`
	huge := small[:len(small)-1] + strings.Repeat(" ", maxRequestBytes-len(small)) + "}"
	if w := do(t, s, "POST", "/v1/advise", huge); w.Code != 200 {
		t.Fatalf("1 MiB body: %d: %.200s", w.Code, w.Body.String())
	}
	if w := do(t, s, "POST", "/v1/advise", small); w.Code != 200 {
		t.Fatalf("small body: %d: %s", w.Code, w.Body.String())
	}
	// Drain the pool: Get hands out what is reachable before it makes
	// anything new, and nothing is put back meanwhile.
	for i := 0; i < 1000; i++ {
		if rb := reqBufPool.Get().(*reqBuf); cap(rb.b) > maxPooledBuf {
			t.Fatalf("the request pool holds a %d-byte buffer after a small request", cap(rb.b))
		}
	}

	big := &reqBuf{b: make([]byte, 0, maxPooledBuf+1)}
	putBuf(&encodeBufPool, big)
	kept := &reqBuf{b: make([]byte, 10, maxPooledBuf)}
	putBuf(&encodeBufPool, kept)
	if len(kept.b) != 0 {
		t.Error("a pooled buffer was not emptied")
	}
	for i := 0; i < 1000; i++ {
		if rb := encodeBufPool.Get().(*reqBuf); rb == big {
			t.Fatal("the encode pool kept a buffer over maxPooledBuf")
		}
	}
}
