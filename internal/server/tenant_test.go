package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/obs"
)

// doAccount is do with an X-Account header.
func doAccount(t *testing.T, s *Server, method, path, account, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	if account != "" {
		req.Header.Set("X-Account", account)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// TestTenantCacheIsolation pins the core tenancy property: the account
// is part of the cache key, so byte-identical bodies from different
// accounts occupy disjoint entries — neither tenant can read (or
// poison) the other's cache.
func TestTenantCacheIsolation(t *testing.T) {
	s := testServer()
	body := adviseBody("mv1", `"budget":25`)

	if w := doAccount(t, s, "POST", "/v1/advise", "acme", body); w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("acme cold: X-Cache = %q, want miss", w.Header().Get("X-Cache"))
	}
	// Same body, other tenant: must NOT hit acme's entry.
	if w := doAccount(t, s, "POST", "/v1/advise", "globex", body); w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("globex cold: X-Cache = %q, want miss (cross-tenant hit!)", w.Header().Get("X-Cache"))
	}
	// Nor may the default namespace see either.
	if w := do(t, s, "POST", "/v1/advise", body); w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("default-namespace cold: X-Cache = %q, want miss", w.Header().Get("X-Cache"))
	}
	// Each namespace is warm for itself.
	for _, acct := range []string{"acme", "globex", ""} {
		if w := doAccount(t, s, "POST", "/v1/advise", acct, body); w.Header().Get("X-Cache") != "hit" {
			t.Errorf("account %q repeat: X-Cache = %q, want hit", acct, w.Header().Get("X-Cache"))
		}
	}
	drainSolves(t, s, 5*time.Second)
}

// TestTenantPathAndHeaderEquivalent: the /v1/t/{account}/... path
// segment and the X-Account header name the same namespace — a request
// via one warms the cache for the other.
func TestTenantPathAndHeaderEquivalent(t *testing.T) {
	s := testServer()
	body := adviseBody("mv1", `"budget":25`)

	if w := do(t, s, "POST", "/v1/t/acme/advise", body); w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("path-scoped cold: status %d, X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	if w := doAccount(t, s, "POST", "/v1/advise", "acme", body); w.Header().Get("X-Cache") != "hit" {
		t.Errorf("header spelling missed the path spelling's entry: X-Cache = %q", w.Header().Get("X-Cache"))
	}
	drainSolves(t, s, 5*time.Second)
}

// TestTenantInvalidAccount: malformed account IDs are rejected up
// front with 400, before any body parsing.
func TestTenantInvalidAccount(t *testing.T) {
	s := testServer()
	for _, bad := range []string{
		"has space", "naughty/../path", "semi;colon", "uniçode",
		strings.Repeat("x", 65),
	} {
		w := doAccount(t, s, "POST", "/v1/advise", bad, adviseBody("mv1", `"budget":25`))
		if w.Code != 400 {
			t.Errorf("account %q: status %d, want 400", bad, w.Code)
		}
		if !strings.Contains(w.Body.String(), "invalid account id") {
			t.Errorf("account %q: body %s", bad, w.Body.String())
		}
	}
	// 64 chars is the boundary: valid.
	if w := doAccount(t, s, "POST", "/v1/advise", strings.Repeat("x", 64), adviseBody("mv1", `"budget":25`)); w.Code != 200 {
		t.Errorf("64-char account: status %d, want 200", w.Code)
	}
	drainSolves(t, s, 5*time.Second)
}

// TestTenantStatsAndMetrics: per-account request counts surface on
// /v1/stats (tenants section) and /metrics (account label), and the
// default namespace stays invisible — no tenants key at all until a
// tenant-scoped request arrives.
func TestTenantStatsAndMetrics(t *testing.T) {
	s := testServer()
	body := adviseBody("mv1", `"budget":25`)

	if w := do(t, s, "GET", "/v1/stats", ""); strings.Contains(w.Body.String(), `"tenants"`) {
		t.Error("/v1/stats has a tenants section before any tenant-scoped request")
	}

	doAccount(t, s, "POST", "/v1/advise", "acme", body)
	doAccount(t, s, "POST", "/v1/advise", "acme", body)
	do(t, s, "POST", "/v1/t/globex/advise", body)
	drainSolves(t, s, 5*time.Second)

	w := do(t, s, "GET", "/v1/stats", "")
	for _, want := range []string{`"tenants"`, `"acme":2`, `"globex":1`} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/v1/stats missing %s: %s", want, w.Body.String())
		}
	}
	samples := scrape(t, s)
	if v, _ := findSample(samples, "mvcloud_tenant_requests_total",
		map[string]string{"account": "acme"}); v != 2 {
		t.Errorf(`tenant_requests_total{account="acme"} = %g, want 2`, v)
	}
	if v, _ := findSample(samples, "mvcloud_tenant_requests_total",
		map[string]string{"account": "globex"}); v != 1 {
		t.Errorf(`tenant_requests_total{account="globex"} = %g, want 1`, v)
	}
}

// TestTenantSeriesBounded: a flood of distinct account IDs cannot
// balloon the counter table or the metric exposition — past
// maxTenantSeries, new accounts land in "other" — and /v1/stats and
// /metrics, being two views of that one table, agree on it.
func TestTenantSeriesBounded(t *testing.T) {
	s := testServer()
	// Invalid JSON bodies keep this fast: the tenant is counted during
	// request intake, before body parsing rejects the request.
	for i := 0; i < maxTenantSeries+10; i++ {
		doAccount(t, s, "POST", "/v1/advise", fmt.Sprintf("acct-%d", i), "{nope")
	}
	w := do(t, s, "GET", "/v1/stats", "")
	if !strings.Contains(w.Body.String(), `"other":10`) {
		t.Errorf(`/v1/stats overflow bucket: want "other":10 in %s`, w.Body.String())
	}
	s.tenants.mu.RLock()
	n := len(s.tenants.counters)
	s.tenants.mu.RUnlock()
	if n > maxTenantSeries+1 {
		t.Errorf("tenant table grew to %d series, cap is %d + other", n, maxTenantSeries)
	}
	samples := scrape(t, s)
	if v, _ := findSample(samples, "mvcloud_tenant_requests_total",
		map[string]string{"account": "other"}); v != 10 {
		t.Errorf(`tenant_requests_total{account="other"} = %g, want 10`, v)
	}
	// An overflowed account repeats without growing the table, and an
	// account with its own series keeps it.
	doAccount(t, s, "POST", "/v1/advise", fmt.Sprintf("acct-%d", maxTenantSeries+3), "{nope")
	doAccount(t, s, "POST", "/v1/advise", "acct-7", "{nope")
	if got := s.tenants.counts(); len(got) != n || got["other"] != 11 || got["acct-7"] != 2 {
		t.Errorf(`after two repeats: %d series, other = %d, acct-7 = %d; want %d, 11, 2`, len(got), got["other"], got["acct-7"], n)
	}
}

// TestTenantOverflowTakesReadLock pins the fix of a dead alias branch:
// once the table is full, a request from an account without a series
// must resolve to "other" under the read lock — the write lock is for
// registration only, or a tenant-ID flood serializes on it. The test
// holds a read lock, which a writer would wait behind.
func TestTenantOverflowTakesReadLock(t *testing.T) {
	var tm tenantMetrics
	tm.init(obs.NewRegistry())
	for i := 0; i <= maxTenantSeries; i++ {
		tm.record(fmt.Sprintf("acct-%d", i))
	}
	tm.mu.RLock()
	defer tm.mu.RUnlock()
	done := make(chan struct{})
	go func() {
		tm.record("a-newcomer")
		tm.record(fmt.Sprintf("acct-%d", maxTenantSeries))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an overflowed account's request is waiting for the tenant table's write lock")
	}
	if got := tm.counters["other"].Value(); got != 3 {
		t.Errorf("other = %d, want 3", got)
	}
}

// TestTenantClusterForwarding: in cluster mode the account crosses the
// transport (header in-process, path over HTTP) so worker-side caches
// are tenant-disjoint too, and the frontend's tenant counters tick.
func TestTenantClusterForwarding(t *testing.T) {
	lc := testCluster(t, LocalClusterOptions{Workers: 2})
	body := adviseBody("mv1", `"budget":25`)

	if w := do(t, lc.Frontend, "POST", "/v1/t/acme/advise", body); w.Code != 200 {
		t.Fatalf("tenant forward: status %d: %s", w.Code, w.Body.String())
	}
	drainCluster(t, lc, 5*time.Second)
	// The serving worker memoized under acme's namespace, not the
	// default one: a default-namespace probe of every worker misses.
	for i, ws := range lc.Workers {
		if n := ws.cache.Len(); n > 0 {
			if w := do(t, ws, "POST", "/v1/advise", body); w.Header().Get("X-Cache") == "hit" {
				t.Errorf("worker %d: default namespace hit a tenant-scoped entry", i)
			}
			if w := doAccount(t, ws, "POST", "/v1/advise", "acme", body); w.Header().Get("X-Cache") != "hit" {
				t.Errorf("worker %d: acme namespace did not reach the forwarded entry", i)
			}
		}
	}
	for _, ws := range lc.Workers {
		drainSolves(t, ws, 5*time.Second)
	}
	w := do(t, lc.Frontend, "GET", "/v1/stats", "")
	if !strings.Contains(w.Body.String(), `"acme":1`) {
		t.Errorf("frontend /v1/stats missing acme count: %s", w.Body.String())
	}
}
