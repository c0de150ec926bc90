package server

import (
	"strconv"
	"strings"
	"testing"
)

// TestCeilingTexts pins the exact 400 body of every server-side ceiling
// on every memoized endpoint under the default Options, and which error
// a body that breaks both a scenario rule and a ceiling is answered
// with: the scenario rule's.
func TestCeilingTexts(t *testing.T) {
	const rows = `"fact_rows":10000000`
	workload := `"workload":[` + strings.TrimSuffix(strings.Repeat(`{"levels":["year","country"]},`, 65), ",") + `]`
	// 13 fleet sizes × the 5 catalog providers: a grid of 65 cells.
	sizes := make([]string, 13)
	for i := range sizes {
		sizes[i] = strconv.Itoa(i + 1)
	}
	fleets := `"fleet_sizes":[` + strings.Join(sizes, ",") + `]`
	const bigRows = `"fact_rows":200000000000`
	cases := []struct {
		name, path, body, want string
	}{
		// /v1/advise
		{"advise fact_rows", "/v1/advise", `{"budget":25,` + bigRows + `}`,
			"fact_rows 200000000000 exceeds the server limit 100000000000"},
		{"advise workload", "/v1/advise", `{"budget":25,` + rows + `,` + workload + `}`,
			"workload of 65 queries exceeds the server limit 64"},
		{"advise candidate_budget", "/v1/advise", `{"budget":25,` + rows + `,"candidate_budget":17}`,
			"candidate_budget 17 exceeds the server limit 16"},
		{"advise steps below 2", "/v1/advise", `{"scenario":"pareto","steps":1,` + rows + `}`,
			"steps 1 out of [2,101]"},
		{"advise steps above max", "/v1/advise", `{"scenario":"pareto","steps":102,` + rows + `}`,
			"steps 102 out of [2,101]"},

		// /v1/compare
		{"compare fact_rows", "/v1/compare", `{"budget":25,` + bigRows + `}`,
			"fact_rows 200000000000 exceeds the server limit 100000000000"},
		{"compare workload", "/v1/compare", `{"budget":25,` + rows + `,` + workload + `}`,
			"workload of 65 queries exceeds the server limit 64"},
		{"compare candidate_budget", "/v1/compare", `{"budget":25,` + rows + `,"candidate_budget":17}`,
			"candidate_budget 17 exceeds the server limit 16"},
		{"compare steps below 2", "/v1/compare", `{"scenarios":["pareto"],"steps":1,` + rows + `}`,
			"compare: pareto needs at least 2 steps, got 1"},
		{"compare steps above max", "/v1/compare", `{"scenarios":["pareto"],"steps":102,` + rows + `}`,
			"steps 102 exceeds the server limit 101"},
		{"compare break_even_steps 1", "/v1/compare", `{"budget":25,"break_even_steps":1,` + rows + `}`,
			"compare: break-even needs at least 2 steps, got 1"},
		{"compare break_even_steps", "/v1/compare", `{"budget":25,"break_even_steps":102,` + rows + `}`,
			"break_even_steps 102 exceeds the server limit 101"},
		{"compare grid", "/v1/compare", `{"budget":25,` + rows + `,` + fleets + `}`,
			"comparison grid of 65 configurations exceeds the server limit 64"},

		// /v1/sweep
		{"sweep fact_rows", "/v1/sweep", `{"budget":25,` + bigRows + `}`,
			"fact_rows 200000000000 exceeds the server limit 100000000000"},
		{"sweep workload", "/v1/sweep", `{"budget":25,` + rows + `,` + workload + `}`,
			"workload of 65 queries exceeds the server limit 64"},
		{"sweep candidate_budget", "/v1/sweep", `{"budget":25,` + rows + `,"candidate_budget":17}`,
			"candidate_budget 17 exceeds the server limit 16"},
		{"sweep grid", "/v1/sweep", `{"budget":25,` + rows + `,` + fleets + `}`,
			"sweep grid of 65 configurations exceeds the server limit 64"},

		// A scenario rule and a ceiling broken at once: the scenario rule
		// is reported.
		{"advise rule before ceiling", "/v1/advise", `{"scenario":"mv1",` + bigRows + `,"candidate_budget":17}`,
			"budget required for scenario mv1"},
		{"compare rule before ceiling", "/v1/compare", `{"scenarios":["mv2"],` + rows + `,` + fleets + `}`,
			"compare: limit required for scenario mv2"},
		{"sweep rule before ceiling", "/v1/sweep", `{"scenario":"mv2",` + bigRows + `,` + fleets + `}`,
			"compare: limit required for scenario mv2"},
		// Two ceilings at once: the config's are checked before the grid's.
		{"compare config ceiling before grid", "/v1/compare", `{"budget":25,` + bigRows + `,` + fleets + `}`,
			"fact_rows 200000000000 exceeds the server limit 100000000000"},
		{"sweep config ceiling before grid", "/v1/sweep", `{"budget":25,` + rows + `,"candidate_budget":17,` + fleets + `}`,
			"candidate_budget 17 exceeds the server limit 16"},
	}
	s := testServer()
	for _, c := range cases {
		w := do(t, s, "POST", c.path, c.body)
		want := string(errorBody(c.want))
		if w.Code != 400 || w.Body.String() != want {
			t.Errorf("%s: %d %s, want 400 %s", c.name, w.Code, w.Body.String(), want)
		}
	}
}
