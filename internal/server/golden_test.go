package server

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// checkGolden compares a response body against testdata/<name>.golden,
// rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/server -run Golden -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("response drifted from committed golden %s:\ngot:  %s\nwant: %s", path, got, want)
	}
}

// TestAdviseSearchGoldens pins the exact response bytes of seeded search
// advisories on the paper's sales lattice. The incremental evaluation
// engine must keep these byte-identical: any drift means the refactor
// changed what a pinned seed selects (or how it is priced), breaking the
// memoization contract and every recorded experiment number.
func TestAdviseSearchGoldens(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"mv1_search_seed42", adviseBody("mv1", `"budget":25,"solver":"search","seed":42`)},
		{"mv2_search_seed7", adviseBody("mv2", `"limit":"4h","solver":"search","seed":7`)},
		{"mv3_search_seed3", adviseBody("mv3", `"alpha":0.5,"solver":"search","seed":3`)},
		{"pareto_search_seed5", adviseBody("pareto", `"steps":5,"solver":"search","seed":5`)},
		{"mv1_knapsack", adviseBody("mv1", `"budget":25`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, testServer(), "POST", "/v1/advise", c.body)
			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			checkGolden(t, c.name, w.Body.Bytes())
		})
	}
}

// TestTariffsGolden pins the GET /v1/tariffs body: every catalog
// provider in the pricing wire format and its compute and storage
// tables, the tables mvcloud -tariffs prints.
func TestTariffsGolden(t *testing.T) {
	w := do(t, testServer(), "GET", "/v1/tariffs", "")
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	checkGolden(t, "tariffs", w.Body.Bytes())
}
