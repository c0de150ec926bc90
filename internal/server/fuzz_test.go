package server

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzServeNever5xx is the HTTP-level never-5xx target: any bytes, to
// any memoized endpoint, under any account — by X-Account or by the
// /v1/t/{account}/ routes — are answered 200, 400 or 429, never 5xx. A
// refusal leaves nothing behind in either cache, and two 200s under one
// canonical key carry the same bytes, however differently their bodies
// were spelled: no body can plant a response another body will be
// served.
func FuzzServeNever5xx(f *testing.F) {
	for i, g := range goldenRequests(f) {
		f.Add(uint8(i), "", []byte(g.body))
	}
	f.Add(uint8(3), "acme", []byte(adviseShapeBody))
	f.Add(uint8(0), "no/such account", []byte(adviseShapeBody))
	// Ceilings low enough that the dearest problem a body can name solves
	// in milliseconds; they bound the work, not the byte handling.
	s := New(Options{MaxCompareConfigs: 8, MaxParetoSteps: 11, MaxFactRows: 1_000_000_000})
	served := map[string][]byte{} // canonical cache key → the first 200 served under it
	f.Fuzz(func(t *testing.T, route uint8, account string, body []byte) {
		endpoint := memoizedEndpoints[route%3]
		path := "/v1/" + endpoint
		byPath := route&4 != 0 && validAccount(account)
		if byPath {
			path = "/v1/t/" + account + "/" + endpoint
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		if !byPath && account != "" {
			req.Header["X-Account"] = []string{account}
		}
		responses, rawKeys := s.cache.Len(), s.rawKeys.Len()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		switch w.Code {
		case 200:
			if w.Header().Get("X-Degraded") != "" {
				return // cut short by the clock, never cached
			}
			rawKey := append(append(append(append([]byte(endpoint), 0), account...), 0), body...)
			_, cacheKey, ok := s.rawKeys.ref(rawKey)
			if !ok {
				t.Fatalf("a 200 left no raw key: %s %q", path, body)
			}
			if first, ok := served[cacheKey]; !ok {
				if len(served) >= 4096 {
					clear(served) // a long run must not hold every body it ever saw
				}
				served[cacheKey] = w.Body.Bytes()
			} else if !bytes.Equal(first, w.Body.Bytes()) {
				t.Fatalf("two 200s under one canonical key differ: %s %q\nkey:   %q\nfirst: %s\nnow:   %s", path, body, cacheKey, first, w.Body.Bytes())
			}
		case 400, 429:
			if s.cache.Len() != responses || s.rawKeys.Len() != rawKeys {
				t.Fatalf("a %d changed the caches (%d→%d responses, %d→%d raw keys): %s %q", w.Code, responses, s.cache.Len(), rawKeys, s.rawKeys.Len(), path, body)
			}
		default:
			t.Fatalf("status %d: %s %q: %s", w.Code, path, body, w.Body.String())
		}
	})
}
