package compare

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"vmcloud/internal/core"
)

// TestRunCancelledReturnsPromptly pins the deadline-propagation
// contract for the compare grid: a dead context stops the cells at a
// cell boundary and the whole run unwinds promptly with the context's
// error instead of grinding through the full grid.
func TestRunCancelledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := testRequest(t)
	req.Ctx = ctx

	start := time.Now()
	_, err := Run(req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled compare run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled compare took %v to unwind, want < 2s", elapsed)
	}
}

// TestSweepCancelledReturnsPromptly is the same contract for the tariff
// sweep grid.
func TestSweepCancelledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := SweepRequest{
		Config:     core.Config{Workload: testWorkload(t, 5), FactRows: testRows, Ctx: ctx},
		Scenario:   "mv3",
		FleetSizes: []int{3, 5},
	}

	start := time.Now()
	_, err := RunSweep(req)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancelled sweep took %v to unwind, want < 2s", elapsed)
	}
}

// TestRunUnexpiredContextIsByteStable checks the zero-cost half: a
// context that never fires must not change a single byte of the
// comparison relative to a context-free run.
func TestRunUnexpiredContextIsByteStable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()

	base := testRequest(t)
	base.Scenarios = []string{"mv1"}
	withCtx := base
	withCtx.Ctx = ctx

	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withCtx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Degraded || b.Degraded {
		t.Fatal("undisturbed run marked degraded")
	}
	aj, err := json.Marshal(a.JSON())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Error("unexpired context changed the comparison bytes")
	}
}
