package server

import (
	"net/http"
	"sync"

	"vmcloud/internal/obs"
)

// Tenant namespaces. An account ID arrives either as the {account}
// path segment of the tenant-scoped routes (POST
// /v1/t/{account}/advise and friends) or as the X-Account header on
// the default routes. The account is folded into both cache key
// layouts — the raw-body fast-path key and the canonical response key
// — so two tenants posting byte-identical bodies occupy disjoint cache
// entries: one tenant can neither poison nor read another's cache. The
// empty account is the default namespace, and requests in it pay
// nothing for the feature (no stats, no metric series, one extra NUL
// byte in a pooled buffer).

// accountFrom extracts and validates the request's account ID. ok is
// false only for a present-but-invalid ID; an absent ID is the valid
// default namespace "".
//
//mvlint:hotpath
func accountFrom(r *http.Request) (account string, ok bool) {
	account = r.PathValue("account")
	if account == "" {
		account = r.Header.Get("X-Account")
	}
	if account == "" {
		return "", true
	}
	return account, validAccount(account)
}

// validAccount enforces the account ID charset: 1-64 chars of
// [a-zA-Z0-9_-]. The charset excludes NUL by construction, so an
// account can never forge the cache-key layout, and excludes '/' so a
// path-segment account can never smuggle extra segments.
//
//mvlint:hotpath
func validAccount(a string) bool {
	if len(a) == 0 || len(a) > 64 {
		return false
	}
	for i := 0; i < len(a); i++ {
		c := a[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// maxTenantSeries bounds the distinct accounts counted individually.
const maxTenantSeries = 256

// tenantMetrics lazily registers one request counter per account on
// the server registry (mvcloud_tenant_requests_total{account=...}); the
// counters are also what /v1/stats reads its tenants section from.
// Registration is guarded — the obs registry panics on duplicate
// series — and bounded at maxTenantSeries accounts, beyond which
// requests count against the "other" series, so a tenant-ID flood
// cannot balloon the exposition.
type tenantMetrics struct {
	reg *obs.Registry

	mu       sync.RWMutex
	counters map[string]*obs.Counter
}

func (t *tenantMetrics) init(reg *obs.Registry) {
	t.reg = reg
	t.counters = make(map[string]*obs.Counter)
}

// record counts one request for account. The steady-state path — a
// known account, or any account once the table is full — is a
// read-locked map probe plus an atomic add: a flood of new account IDs
// past the bound must not serialize on the write lock.
//
//mvlint:hotpath
func (t *tenantMetrics) record(account string) {
	t.mu.RLock()
	c := t.counters[account]
	if c == nil && len(t.counters) >= maxTenantSeries {
		c = t.counters["other"]
	}
	t.mu.RUnlock()
	if c == nil {
		c = t.register(account)
	}
	c.Inc()
}

// register adds account's series, or the shared "other" series once
// maxTenantSeries accounts have their own.
func (t *tenantMetrics) register(account string) *obs.Counter {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters[account] == nil && len(t.counters) >= maxTenantSeries {
		account = "other"
	}
	c := t.counters[account]
	if c == nil {
		c = t.reg.Counter("mvcloud_tenant_requests_total",
			"Requests received per account namespace.", "account", account)
		t.counters[account] = c
	}
	return c
}

// counts is the /v1/stats tenants section: requests per account, nil
// before the first tenant-scoped request.
func (t *tenantMetrics) counts() map[string]int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.counters))
	for account, c := range t.counters {
		out[account] = c.Value()
	}
	return out
}
