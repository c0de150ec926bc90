package server

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/obs"
	"vmcloud/internal/schema"
	"vmcloud/internal/workload"
)

// solveOn canonicalizes body as endpoint ep's miss path does and solves
// it on ws; steps, when non-zero, overrides a normalized pareto's steps
// past the ceilings, so the solve fails after the build.
func solveOn(t *testing.T, ep, body string, steps int, ws *core.Workspace) ([]byte, error) {
	t.Helper()
	e := tableServer.endpoint(ep)
	req := e.newReq()
	if _, _, err := e.canonicalize(nil, body, req); err != nil {
		t.Fatalf("%s %s: %v", ep, body, err)
	}
	if steps != 0 {
		req.(*adviseRequest).Steps = steps
	}
	b, _, err := req.solve(context.Background(), new(obs.Trace), ws)
	return b, err
}

// adviseLarge is the repo benchmark's search-large operation on ws: a
// search-solver advise on the 256-cuboid synthetic lattice, encoded as
// the advise endpoint writes it.
func adviseLarge(t *testing.T, rows int64, ws *core.Workspace) []byte {
	t.Helper()
	sch, err := schema.Synthetic(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := lattice.New(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Random(l, 40, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := core.New(core.Config{Schema: sch, FactRows: rows, Workload: w, CandidateBudget: 48, Solver: core.SolverSearch, Seed: rows, Workspace: ws})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.AdviseTradeoff(0.6)
	if err != nil {
		t.Fatal(err)
	}
	ans := adviseAnswer{scenario: "mv3", size: core.DatasetSizeOf(adv), candidates: len(adv.Candidates), rec: &rec}
	b, err := encodeBody(new(obs.Trace), ans.AppendJSON)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkspaceRecycle: one workspace carried through a mixed sequence —
// sales advises of every scenario on both solvers, a 256-cuboid
// synthetic advise, compare grids of 4, 1 and 6 cells, a sweep, solves
// that fail after the build or inside it, and every committed golden
// request — answers each request with the bytes a new workspace gives
// it, and reports each failure with a new workspace's text.
func TestWorkspaceRecycle(t *testing.T) {
	type step struct {
		ep, body string
		steps    int   // a pareto's steps past the ceilings: fails after the build
		large    int64 // fact rows of a synthetic advise instead
		badQuery bool  // a core build on a workload that fails validation
	}
	seq := []step{
		{ep: "advise", body: `{"scenario":"mv1","budget":25,"queries":10,"frequency":30}`},
		{ep: "advise", body: `{"scenario":"mv2","limit":"40h","queries":5,"frequency":20,"fact_rows":90000000}`},
		{ep: "advise", body: `{"scenario":"mv3","alpha":0.3,"queries":3,"frequency":50}`},
		{ep: "advise", body: `{"scenario":"pareto","steps":7,"queries":10,"frequency":30}`},
		{ep: "advise", body: `{"scenario":"mv1","budget":40,"queries":10,"frequency":30,"solver":"search","seed":3}`},
		{ep: "advise", body: `{"scenario":"pareto","steps":5,"queries":5,"frequency":30,"solver":"search","seed":9}`},
		{large: 1_000_000_000},
		{ep: "compare", body: `{"budget":25,"limit":"4h","alpha":0.8,"providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"queries":10,"frequency":30}`},
		{ep: "compare", body: `{"budget":25,"scenarios":["mv1","pareto"],"providers":["stratus"],"fleet_sizes":[4],"queries":5,"frequency":30}`},
		{ep: "advise", body: `{"scenario":"pareto","queries":10,"frequency":30}`, steps: 1},
		{ep: "compare", body: `{"budget":30,"limit":"10h","providers":["aws-2012","cumulus","stratus"],"fleet_sizes":[2,6],"queries":10,"frequency":40,"fact_rows":300000000}`},
		{badQuery: true},
		{ep: "sweep", body: `{"limit":"6h","providers":["aws-2012","cumulus"],"fleet_sizes":[3,5,8],"queries":10,"frequency":30}`},
		{ep: "advise", body: `{"scenario":"mv2","limit":"4h","queries":10,"frequency":30}`},
		{large: 700_000_000},
		{ep: "advise", body: `{"scenario":"mv1","budget":25,"queries":10,"frequency":30,"maintenance_policy":"deferred"}`},
	}
	for _, g := range goldenRequests(t) {
		seq = append(seq, step{ep: g.endpoint, body: g.body})
	}
	ws := new(core.Workspace)
	for i, st := range seq {
		if st.large != 0 {
			got, want := adviseLarge(t, st.large, ws), adviseLarge(t, st.large, new(core.Workspace))
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: synthetic advise differs on the recycled workspace\n got %s\nwant %s", i, got, want)
			}
			continue
		}
		if st.badQuery {
			bad := workload.Workload{Queries: []workload.Query{{Name: "q", Point: lattice.Point{0, 9}, Frequency: 1}}}
			_, err := core.New(core.Config{Workload: bad, Workspace: ws})
			_, want := core.New(core.Config{Workload: bad})
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("step %d: invalid workload on the recycled workspace: %v, want %v", i, err, want)
			}
			continue
		}
		got, err := solveOn(t, st.ep, st.body, st.steps, ws)
		want, wantErr := solveOn(t, st.ep, st.body, st.steps, new(core.Workspace))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("step %d (%s %s): error %v on the recycled workspace, %v on a new one", i, st.ep, st.body, err, wantErr)
		}
		if (st.steps != 0) != (err != nil) {
			t.Fatalf("step %d (%s %s): error %v", i, st.ep, st.body, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s %s): body differs on the recycled workspace\n got %s\nwant %s", i, st.ep, st.body, got, want)
		}
	}
}

// TestWorkspacePoolConcurrentMisses runs misses of all three endpoints
// on many goroutines against one server, so that they take and put
// back workspaces of the one pool under each other (run it with -race),
// and holds every body to the one a new workspace gives the request.
func TestWorkspacePoolConcurrentMisses(t *testing.T) {
	const clients, each = 6, 8
	body := func(c, i int) (string, string) {
		rows := 100_000_000 + 1_000*c + i
		switch i % 3 {
		case 0:
			return "advise", fmt.Sprintf(`{"scenario":"pareto","steps":5,"queries":10,"frequency":30,"fact_rows":%d}`, rows)
		case 1:
			return "compare", fmt.Sprintf(`{"budget":25,"limit":"4h","providers":["aws-2012","cumulus"],"fleet_sizes":[3,5],"queries":10,"frequency":30,"fact_rows":%d}`, rows)
		}
		return "sweep", fmt.Sprintf(`{"budget":25,"providers":["aws-2012","stratus"],"fleet_sizes":[2,4],"queries":5,"frequency":30,"fact_rows":%d}`, rows)
	}
	want := make(map[string][]byte)
	for c := range clients {
		for i := range each {
			ep, b := body(c, i)
			w, err := solveOn(t, ep, b, 0, new(core.Workspace))
			if err != nil {
				t.Fatal(err)
			}
			want[b] = w
		}
	}
	s := New(Options{CacheSize: 1})
	var wg sync.WaitGroup
	errs := make(chan string, clients*each)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				ep, b := body(c, i)
				w := do(t, s, "POST", "/v1/"+ep, b)
				if w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
					errs <- fmt.Sprintf("%s: status %d, X-Cache %q", b, w.Code, w.Header().Get("X-Cache"))
				} else if got := w.Body.Bytes(); !bytes.Equal(got, want[b]) {
					errs <- fmt.Sprintf("%s: served\n%s\nwant\n%s", b, got, want[b])
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	var msgs []string
	for m := range errs {
		msgs = append(msgs, m)
	}
	if len(msgs) > 0 {
		t.Fatalf("%d of %d misses answered differently:\n%s", len(msgs), clients*each, strings.Join(msgs, "\n"))
	}
}

// TestInvalidWorkloadTexts pins the 400 every endpoint answers an
// invalid workload with, text for text.
func TestInvalidWorkloadTexts(t *testing.T) {
	s := testServer()
	for _, c := range []struct{ members, want string }{
		{`"workload":[{}]`, `workload: query 0: no levels or point given`},
		{`"workload":[{"levels":["eon","country"]}]`, `workload: query 0: schema: dimension time has no level \"eon\"`},
		{`"workload":[{"levels":["year"]}]`, `workload: query 0: lattice: want 2 level names, got 1`},
		{`"workload":[{"point":[99,99]}]`, `workload: query 0: lattice: point [99 99] level 99 out of range [0,4)`},
		{`"workload":[{"point":[1]}]`, `workload: query 0: lattice: point [1] has 1 dims, schema has 2`},
		{`"workload":[{"point":[-1,0]}]`, `workload: query 0: lattice: point [-1 0] level -1 out of range [0,4)`},
		{`"workload":[{"point":[1,1],"frequency":-3}]`, `workload: query 0 (month×region) has frequency -3`},
		{`"frequency":-3`, `core: negative frequency -3`},
		{`"queries":11`, `workload: sales workload size 11 out of range 1..10`},
		{`"queries":-1`, `workload: sales workload size -1 out of range 1..10`},
		{`"candidate_budget":-2`, `core: negative candidate_budget -2`},
	} {
		for _, ep := range []struct{ name, head string }{
			{"advise", `{"scenario":"mv1","budget":25,`},
			{"compare", `{"budget":25,`},
			{"sweep", `{"budget":25,`},
		} {
			w := do(t, s, "POST", "/v1/"+ep.name, ep.head+c.members+"}")
			if want := `{"error":"` + c.want + "\"}\n"; w.Code != 400 || w.Body.String() != want {
				t.Errorf("%s %s: %d %s, want 400 %s", ep.name, c.members, w.Code, w.Body.String(), want)
			}
		}
	}
}

// TestWorkspacePoolDropsLarge: a workspace a large grid grew past
// maxPooledWorkspace is dropped, not pooled behind the small solves
// that follow.
func TestWorkspacePoolDropsLarge(t *testing.T) {
	s := testServer()
	large := `{"budget":25,"fleet_sizes":[1,2,3,4,5,6,7,8,9,10,11,12],"queries":10,"frequency":30}`
	if w := do(t, s, "POST", "/v1/sweep", large); w.Code != 200 {
		t.Fatalf("60-cell sweep: %d: %s", w.Code, w.Body.String())
	}
	// Drain the pool: Get hands out what is reachable before it makes
	// anything new, and nothing is put back meanwhile.
	for range 1000 {
		if ws := workspacePool.Get().(*core.Workspace); ws.Bytes() > maxPooledWorkspace {
			t.Fatalf("the pool holds a %d-byte workspace after a 60-cell sweep", ws.Bytes())
		}
	}
}
