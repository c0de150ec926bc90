package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"vmcloud/internal/compare"
	"vmcloud/internal/pricing"
)

func sweepBody(extra string) string {
	b := fmt.Sprintf(`{"budget":25,"fact_rows":%d,"queries":5`, testRows)
	if extra != "" {
		b += "," + extra
	}
	return b + "}"
}

func TestSweepEndpoint(t *testing.T) {
	s := testServer()
	w := do(t, s, "POST", "/v1/sweep", sweepBody(`"fleet_sizes":[3,5]`))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("X-Cache") != "miss" {
		t.Errorf("first sweep X-Cache = %q", w.Header().Get("X-Cache"))
	}
	var resp compare.SweepJSON
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scenario != "mv1" {
		t.Errorf("scenario = %q, want mv1 (derived from budget)", resp.Scenario)
	}
	if got, want := len(resp.Cells), 2*len(pricing.ProviderNames()); got != want {
		t.Errorf("cells = %d, want %d (catalog × 2 fleets)", got, want)
	}
	if resp.Best.Provider == "" {
		t.Error("no best configuration")
	}
	if resp.Report == "" {
		t.Error("no rendered report")
	}
	// Byte-identical repeat is a cache hit with an identical body.
	w2 := do(t, s, "POST", "/v1/sweep", sweepBody(`"fleet_sizes":[3,5]`))
	if w2.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat X-Cache = %q", w2.Header().Get("X-Cache"))
	}
	if w2.Body.String() != w.Body.String() {
		t.Error("cache hit body differs from the miss body")
	}
	// Two spellings of the same sweep share one canonical cache entry.
	w3 := do(t, s, "POST", "/v1/sweep", sweepBody(`"fleet_sizes":[5,3,3],"scenario":"mv1"`))
	if w3.Header().Get("X-Cache") != "hit" {
		t.Errorf("respelled sweep X-Cache = %q, want hit", w3.Header().Get("X-Cache"))
	}
}

// A sweep and a compare of the same body must not alias in the cache —
// the endpoint namespaces the shared cache.
func TestSweepCompareCacheNamespacing(t *testing.T) {
	s := testServer()
	body := sweepBody("")
	ws := do(t, s, "POST", "/v1/sweep", body)
	if ws.Code != 200 {
		t.Fatalf("sweep: %d: %s", ws.Code, ws.Body.String())
	}
	wc := do(t, s, "POST", "/v1/compare", body)
	if wc.Code != 200 {
		t.Fatalf("compare: %d: %s", wc.Code, wc.Body.String())
	}
	if wc.Header().Get("X-Cache") != "miss" {
		t.Errorf("compare after sweep of same body X-Cache = %q, want miss", wc.Header().Get("X-Cache"))
	}
	if ws.Body.String() == wc.Body.String() {
		t.Error("sweep and compare bodies alias")
	}
}

func TestSweepValidationAndLimits(t *testing.T) {
	s := testServer()
	cases := []struct {
		name, body, wantErr string
	}{
		{"bad scenario", sweepBody(`"scenario":"pareto"`), "unknown sweep scenario"},
		{"mv2 without limit", `{"scenario":"mv2"}`, "limit required"},
		{"singular provider", sweepBody(`"provider":"aws-2012"`), "instead of the advise"},
		{"grid too large", sweepBody(`"fleet_sizes":[1,2,3,4,5,6,7,8,9,10,11,12,13,14]`), "exceeds the server limit"},
		{"unknown provider", sweepBody(`"providers":["nonesuch"]`), "unknown provider"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/sweep", c.body)
			if w.Code != 400 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), c.wantErr) {
				t.Errorf("error %q does not mention %q", w.Body.String(), c.wantErr)
			}
		})
	}
}

// GET /v1/stats reports the sweep endpoint's cache occupancy under its
// own namespace once a sweep has been served.
func TestSweepStatsNamespace(t *testing.T) {
	s := testServer()
	if w := do(t, s, "POST", "/v1/sweep", sweepBody("")); w.Code != 200 {
		t.Fatalf("sweep: %d: %s", w.Code, w.Body.String())
	}
	w := do(t, s, "GET", "/v1/stats", "")
	if w.Code != 200 {
		t.Fatalf("stats: %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), `"sweep"`) {
		t.Errorf("stats do not break out the sweep namespace: %s", w.Body.String())
	}
}
