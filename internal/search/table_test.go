package search

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/optimizer"
)

// tableRun is what a solve leaves behind: its selections (one, or one
// per sweep step), its counters and the engine's moves over it.
type tableRun struct {
	Sels  []optimizer.Selection
	Stats Stats
	Moves int64
}

// TestEvalTableRecycled interleaves solves on one evaluation table: the
// 8-candidate sales pool, the 38-candidate bench pool, the 80-candidate
// (two-word) wide pool and pareto sweeps, so each solve finds the table
// dirty from the one before it, resized or emptied in place. Each must
// equal the same solve on a fresh table — selections, stats and engine
// moves — and so must the same solve run through Solve's table pool.
// A solve of the size the table already has must keep its arrays, and
// every answer's bill must total the outcome its state was ranked by.
func TestEvalTableRecycled(t *testing.T) {
	pools := map[string]trajectoryPool{}
	for _, p := range trajectoryPools(t) {
		pools[p.name] = p
	}
	scenarios := func(p trajectoryPool) map[string][]optimizer.Scenario {
		baseT, _, err := p.ev.Evaluate(nil)
		if err != nil {
			t.Fatal(err)
		}
		var sweep []optimizer.Scenario
		for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
			sc, err := optimizer.Tradeoff(alpha, optimizer.RawTradeoff, 0, costmodel.Bill{})
			if err != nil {
				t.Fatal(err)
			}
			sweep = append(sweep, sc)
		}
		return map[string][]optimizer.Scenario{
			"mv1":    {optimizer.Budget(p.budget)},
			"mv2":    {optimizer.Deadline(time.Duration(float64(baseT) * 0.6))},
			"mv3":    {sweep[2]},
			"pareto": sweep,
		}
	}
	steps := []struct {
		pool, scenario string
		seed           int64
		maxEvals       int
	}{
		{"sales8", "mv1", 0, 0},
		{"sales8", "mv2", 1, 0},
		{"bench", "mv1", 0, 0},
		{"bench", "mv3", 7, 0},
		{"bench", "pareto", 1, 0},
		{"wide", "mv2", 0, 0},
		{"wide", "mv1", 7, 0},
		{"sales8", "pareto", 0, 0},
		{"bench", "mv2", 1, 300},
		{"bench", "mv2", 1, 0},
		{"wide", "pareto", 7, 0},
		{"sales8", "mv3", 1, 0},
	}
	run := func(p trajectoryPool, scs []optimizer.Scenario, opts Options, table *evalCache) tableRun {
		t.Helper()
		s, err := newSolver(p.ev, p.cands, scs[0], opts, table)
		if err != nil {
			t.Fatal(err)
		}
		sels, err := s.sweep(scs)
		if err != nil {
			t.Fatal(err)
		}
		if o, ok := s.cache.at(s.cache.find(s.inc.Words(), -1, -1)); !ok {
			t.Fatal("the last answer's state is not in the table")
		} else if last := sels[len(sels)-1]; o != (optimizer.Outcome{Time: last.Time, Cost: last.Bill.Total()}) {
			t.Fatalf("the last answer is billed %v, %v; its state was ranked at %+v", last.Time, last.Bill.Total(), o)
		}
		return tableRun{sels, Stats{Evals: s.evals, CachedStates: s.cache.len()}, s.inc.Moves()}
	}
	engines := map[string]*optimizer.IncrementalEvaluator{}
	served := func(p trajectoryPool, scs []optimizer.Scenario, opts Options) tableRun {
		t.Helper()
		if engines[p.name] == nil {
			sess, err := optimizer.NewSession(p.ev, p.cands)
			if err != nil {
				t.Fatal(err)
			}
			engines[p.name] = sess.Engine()
		}
		opts.Engine = engines[p.name]
		moves := opts.Engine.Moves()
		var r tableRun
		if len(scs) == 1 {
			sel, st, err := SolveStats(p.ev, p.cands, scs[0], opts)
			if err != nil {
				t.Fatal(err)
			}
			r.Sels, r.Stats = []optimizer.Selection{sel}, st
		} else {
			sels, err := ParetoSweep(p.ev, p.cands, scs, opts)
			if err != nil {
				t.Fatal(err)
			}
			r.Sels = sels
		}
		r.Moves = opts.Engine.Moves() - moves
		return r
	}
	table := new(evalCache)
	var lastSlots *uint32
	for k, st := range steps {
		p := pools[st.pool]
		scs := scenarios(p)[st.scenario]
		opts := Options{Seed: st.seed, MaxEvals: st.maxEvals}
		name := fmt.Sprintf("#%d %s/%s/seed%d/evals%d", k, st.pool, st.scenario, st.seed, st.maxEvals)
		want := run(p, scs, opts, new(evalCache))
		got := run(p, scs, opts, table)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on a recycled table:\n got %+v\nwant %+v", name, got, want)
		}
		if k > 0 && steps[k-1].pool == st.pool && steps[k-1].maxEvals == st.maxEvals && &table.slots[0] != lastSlots {
			t.Fatalf("%s: a table of the solve's size was not reused", name)
		}
		lastSlots = &table.slots[0]
		pooled := served(p, scs, opts)
		if len(scs) > 1 {
			pooled.Stats = want.Stats // ParetoSweep reports no stats
		}
		if !reflect.DeepEqual(pooled, want) {
			t.Fatalf("%s through the table pool:\n got %+v\nwant %+v", name, pooled, want)
		}
	}
}

// TestEvalTablesShared runs solves from several goroutines at once, each
// taking its table from the pool: every answer and count must equal the
// same solve's on a fresh table (run it under -race).
func TestEvalTablesShared(t *testing.T) {
	var pools []trajectoryPool
	for _, p := range trajectoryPools(t) {
		if p.name == "bench" || p.name == "sales8" {
			pools = append(pools, p)
		}
	}
	type answer struct {
		Sel   optimizer.Selection
		Stats Stats
	}
	want := make([]answer, len(pools))
	for i, p := range pools {
		s, err := newSolver(p.ev, p.cands, optimizer.Budget(p.budget), Options{Seed: 1}, new(evalCache))
		if err != nil {
			t.Fatal(err)
		}
		sel, _, err := s.solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{sel, Stats{Evals: s.evals, CachedStates: s.cache.len()}}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				i := (g + k) % len(pools)
				sel, st, err := SolveStats(pools[i].ev, pools[i].cands, optimizer.Budget(pools[i].budget), Options{Seed: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if got := (answer{sel, st}); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, %s: got %+v, want %+v", g, pools[i].name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
