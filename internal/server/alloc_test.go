package server

import (
	"bytes"
	"net/http"
	"net/url"
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
// buffer, byte-keyed LRU probes, interned labels, shared header values,
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
		// No background health loop: AllocsPerRun needs a quiet process.
		Cluster: ClusterOptions{HealthInterval: -1},
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
