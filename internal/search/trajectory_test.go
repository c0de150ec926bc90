package search

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/views"
)

var updateTrajectory = flag.Bool("update", false, "rewrite testdata/trajectory.json from the current solver")

// trajectoryRow is one pinned solve: the whole answer plus the three
// counters that move if the solver visits states in a different order
// (the evaluation budget is shared by every stage, so a changed probe
// sequence changes where it runs dry, what gets cached and how far the
// engine walks).
type trajectoryRow struct {
	Case   string  `json:"case"`
	Points [][]int `json:"points"`
	TimeNs int64   `json:"time_ns"`
	// Bill is processing, maintenance, materialization, storage,
	// transfer in micro-dollars.
	Bill         [5]int64 `json:"bill"`
	Feasible     bool     `json:"feasible"`
	Degraded     bool     `json:"degraded"`
	Evals        int      `json:"evals"`
	CachedStates int      `json:"cached_states"`
	// Moves is the engine's Add/Drop count over the solve.
	Moves int64 `json:"moves"`
}

type trajectoryPool struct {
	name   string
	ev     *optimizer.Evaluator
	cands  []views.Candidate
	budget money.Money
}

func trajectoryPools(t *testing.T) []trajectoryPool {
	t.Helper()
	var pools []trajectoryPool
	for _, shape := range []struct {
		name          string
		queries, pool int
	}{
		{"large", 20, 32}, // largeFixture: HRU finds 20 useful views
		{"bench", 40, 48}, // the repo benchmark's search-large shape: 38
		{"wide", 100, 80}, // 80: more than one selection word
	} {
		ev, cands, budget := syntheticFixture(t, shape.queries, shape.pool)
		pools = append(pools, trajectoryPool{shape.name, ev, cands, budget})
	}
	if n := len(pools[2].cands); n <= 64 {
		t.Fatalf("wide pool has %d candidates, want a multi-word selection", n)
	}
	ev, cands := fixture(t, 10, 8)
	return append(pools, trajectoryPool{"sales8", ev, cands, money.FromDollars(25)})
}

// TestSearchTrajectoryPinned holds every solver stage to the exact probe
// sequence recorded in testdata/trajectory.json: four pools (20, 38 and
// 80 candidates on 256 cuboids, 8 on the sales lattice) × mv1/mv2/mv3 ×
// three seeds × {default, a budget that runs dry inside a swap row, a
// deadline that is dead at the first probe}. The file was
// captured before the flat evaluation table, the swap-row protocol and
// the maintained index lists went in; those changes are only correct if
// nothing here moves.
func TestSearchTrajectoryPinned(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"evals300", Options{MaxEvals: 300}},
		{"dead", Options{Ctx: dead}},
	}
	var got []trajectoryRow
	for _, p := range trajectoryPools(t) {
		baseT, _, err := p.ev.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}
		mv3, err := optimizer.Tradeoff(0.5, optimizer.RawTradeoff, 0, costmodel.Bill{})
		if err != nil {
			t.Fatal(err)
		}
		objs := []optimizer.Scenario{
			optimizer.Budget(p.budget),
			optimizer.Deadline(time.Duration(float64(baseT) * 0.6)),
			mv3,
		}
		for _, obj := range objs {
			for _, seed := range []int64{0, 1, 7} {
				for _, v := range variants {
					opts := v.opts
					opts.Seed = seed
					s, err := newSolver(p.ev, p.cands, obj, opts, new(evalCache))
					if err != nil {
						t.Fatal(err)
					}
					sel, _, err := s.solve(nil)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%s/seed%d/%s", p.name, obj.Name(), seed, v.name)
					checkEngineInSync(t, name, s)
					row := trajectoryRow{
						Case:   name,
						Points: [][]int{},
						TimeNs: int64(sel.Time),
						Bill: [5]int64{
							int64(sel.Bill.Compute.Processing), int64(sel.Bill.Compute.Maintenance),
							int64(sel.Bill.Compute.Materialization), int64(sel.Bill.Storage), int64(sel.Bill.Transfer),
						},
						Feasible:     sel.Feasible,
						Degraded:     sel.Degraded,
						Evals:        s.evals,
						CachedStates: s.cache.len(),
						Moves:        s.inc.Moves(),
					}
					for _, pt := range sel.Points {
						row.Points = append(row.Points, pt)
					}
					got = append(got, row)
				}
			}
		}
	}

	path := filepath.Join("testdata", "trajectory.json")
	if *updateTrajectory {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, r := range got {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing trajectory (run go test ./internal/search -run TrajectoryPinned -update): %v", err)
	}
	var want []trajectoryRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d solves, trajectory file has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s moved:\n got %+v\nwant %+v", want[i].Case, got[i], want[i])
		}
	}
}

// checkEngineInSync holds the solver's view of its current state — the
// state words — to the engine's selection words, and the walks over them
// to a plain scan: selectedCount and nth must name the set and clear bits
// below n in ascending order, and no bit past n may be set. A swap row
// that failed to put its candidate back on an early return, or an
// annealing step kept in the engine but not in the state, breaks it.
func checkEngineInSync(t *testing.T, name string, s *solver) {
	t.Helper()
	if !reflect.DeepEqual(s.state, s.inc.Words()) {
		t.Fatalf("%s: engine holds %x, solver believes %x", name, s.inc.Words(), s.state)
	}
	n := len(s.cands)
	var set, clear []int
	for i := 0; i < len(s.state)*64; i++ {
		on := s.state[i>>6]&(1<<(uint(i)&63)) != 0
		switch {
		case i >= n && on:
			t.Fatalf("%s: bit %d set past the %d candidates", name, i, n)
		case i >= n:
		case on:
			set = append(set, i)
		default:
			clear = append(clear, i)
		}
	}
	if got := s.selectedCount(); got != len(set) {
		t.Fatalf("%s: selectedCount %d, scan finds %d selected", name, got, len(set))
	}
	for r, want := range set {
		if got := s.nth(false, r); got != want {
			t.Fatalf("%s: selected #%d is %d, scan says %d", name, r, got, want)
		}
	}
	for r, want := range clear {
		if got := s.nth(true, r); got != want {
			t.Fatalf("%s: unselected #%d is %d, scan says %d", name, r, got, want)
		}
	}
}
