package search

import (
	"context"
	"testing"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
)

// TestCancelledSolveReturnsPromptlyDegraded pins the degradation
// contract at its harshest point: a context that is already dead when
// the solve starts. The solver must still return a bit-valid, exactly
// priced selection — marked Degraded — and must do so promptly (the
// server grants a cancelled solve far less than a second of grace).
func TestCancelledSolveReturnsPromptlyDegraded(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, seed := range []int64{0, 7, 42} {
		start := time.Now()
		sel, err := Solve(ev, cands, optimizer.Budget(money.FromDollars(25)), Options{Seed: seed, Ctx: ctx})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sel.Degraded {
			t.Errorf("seed %d: cancelled solve not marked degraded", seed)
		}
		if elapsed > time.Second {
			t.Errorf("seed %d: cancelled solve took %v, want prompt return", seed, elapsed)
		}
		// The degraded incumbent is still exactly priced: re-evaluating
		// its points must reproduce its reported time and bill.
		tt, bill, err := ev.Evaluate(sel.Points)
		if err != nil {
			t.Fatalf("seed %d: degraded selection unpriceable: %v", seed, err)
		}
		if tt != sel.Time || bill.Total() != sel.Bill.Total() {
			t.Errorf("seed %d: degraded selection misreported: %v/%v, repriced %v/%v",
				seed, sel.Time, sel.Bill.Total(), tt, bill.Total())
		}
	}
}

// TestDegradedNeverWorseThanWarmStart is the quality half of the
// degradation ladder: starts — including caller warm starts — are
// always priced before the first climb, so even a solve whose deadline
// expired before it began can never return something worse than the
// best warm start it was handed. This is exactly the guarantee the
// server leans on when it warm-starts search from the knapsack
// solution: a degraded response is never worse than the knapsack.
func TestDegradedNeverWorseThanWarmStart(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	for _, dollars := range []float64{18, 25, 40} {
		budget := money.FromDollars(dollars)
		// A converged solve stands in for the warm start a real caller
		// would pass (the server passes the knapsack optimum).
		warm, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(ev, cands, optimizer.Budget(budget), Options{
			Seed:   7,
			Ctx:    dead,
			Starts: [][]lattice.Point{warm.Points},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Degraded {
			t.Fatalf("budget $%g: dead-context solve not degraded", dollars)
		}
		if got.Feasible != warm.Feasible {
			t.Errorf("budget $%g: degraded feasible=%v, warm start feasible=%v",
				dollars, got.Feasible, warm.Feasible)
		}
		if warm.Feasible && got.Time > warm.Time {
			t.Errorf("budget $%g: degraded time %v worse than warm start %v",
				dollars, got.Time, warm.Time)
		}
	}
}

// TestMidSolveDeadlineKeepsDeterministicPrefix checks a deadline that
// expires mid-flight (not before the solve): the result is still valid
// and prompt, and a solve that was NOT interrupted stays byte-identical
// to a no-context solve — the deadline machinery must cost nothing when
// it never fires.
func TestMidSolveDeadlineKeepsDeterministicPrefix(t *testing.T) {
	ev, cands := fixture(t, 10, 8)
	budget := money.FromDollars(25)

	// Generous deadline: never fires, result must equal the ctx-free one.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	withCtx, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: 7, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if withCtx.Degraded {
		t.Fatal("one-hour deadline marked a fast solve degraded")
	}
	without, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(withCtx.Points, without.Points) || withCtx.Time != without.Time {
		t.Errorf("unexpired deadline changed the result: %v/%v vs %v/%v",
			withCtx.Points, withCtx.Time, without.Points, without.Time)
	}

	// A microscopic deadline expires somewhere mid-pipeline; wherever it
	// lands, the solve returns promptly with a priced incumbent.
	tiny, cancel2 := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel2()
	start := time.Now()
	sel, err := Solve(ev, cands, optimizer.Budget(budget), Options{Seed: 7, Ctx: tiny})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("mid-solve deadline took %v to unwind", elapsed)
	}
	if _, _, err := ev.Evaluate(sel.Points); err != nil {
		t.Errorf("interrupted solve returned unpriceable points: %v", err)
	}
}
