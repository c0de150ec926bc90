package obs_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"vmcloud/internal/obs"
)

// TestTraceNilSafe: every method must no-op on a nil *Trace — the
// solver packages thread the trace unconditionally, and the cache-hit
// path never builds one.
func TestTraceNilSafe(t *testing.T) {
	var tr *obs.Trace
	t0 := tr.StartTimer()
	if !t0.IsZero() {
		t.Error("nil StartTimer returned a live timestamp")
	}
	tr.ObserveSince(obs.PhaseSolve, t0)
	tr.Observe(obs.PhaseSolve, time.Second)
	if tr.Duration(obs.PhaseSolve) != 0 {
		t.Error("nil trace recorded a duration")
	}
	if tr.String() != "" {
		t.Errorf("nil String = %q", tr.String())
	}
	if got := string(tr.AppendJSON(nil)); got != "{}" {
		t.Errorf("nil AppendJSON = %q", got)
	}
}

// TestTraceAccumulates: repeated observations into one phase add up
// (a comparison records one bind per cell under one trace).
func TestTraceAccumulates(t *testing.T) {
	tr := new(obs.Trace)
	tr.Observe(obs.PhaseBind, 10*time.Millisecond)
	tr.Observe(obs.PhaseBind, 5*time.Millisecond)
	if got := tr.Duration(obs.PhaseBind); got != 15*time.Millisecond {
		t.Errorf("Duration = %v, want 15ms", got)
	}
	// A zero t0 (from a nil StartTimer upstream) records nothing.
	tr.ObserveSince(obs.PhaseSolve, time.Time{})
	if tr.Duration(obs.PhaseSolve) != 0 {
		t.Error("zero t0 recorded a duration")
	}
}

// TestTraceHeader pins the X-Solve-Phases wire form: semicolon-joined
// name=duration pairs in pipeline order, empty phases skipped.
func TestTraceHeader(t *testing.T) {
	tr := new(obs.Trace)
	tr.Observe(obs.PhaseLattice, 52*time.Microsecond)
	tr.Observe(obs.PhaseSolve, 3*time.Millisecond)
	tr.Observe(obs.PhaseTotal, 4*time.Millisecond)
	got := tr.String()
	want := "lattice=52µs;solve=3ms;total=4ms"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if empty := new(obs.Trace).String(); empty != "" {
		t.Errorf("empty trace String = %q", empty)
	}
}

// TestTraceJSON: the slow-log fragment must be valid JSON with phase
// names as keys and seconds as values.
func TestTraceJSON(t *testing.T) {
	tr := new(obs.Trace)
	tr.Observe(obs.PhaseKernel, 250*time.Millisecond)
	tr.Observe(obs.PhaseEncode, 1*time.Millisecond)
	var m map[string]float64
	if err := json.Unmarshal(tr.AppendJSON(nil), &m); err != nil {
		t.Fatalf("AppendJSON produced invalid JSON: %v", err)
	}
	if m["kernel"] != 0.25 || m["encode"] != 0.001 {
		t.Errorf("decoded %v", m)
	}
	if len(m) != 2 {
		t.Errorf("want 2 phases, got %v", m)
	}
}

// TestPhaseNames: the wire names are a stable contract (dashboards and
// the per-phase histogram labels depend on them).
func TestPhaseNames(t *testing.T) {
	want := map[obs.Phase]string{
		obs.PhaseLattice:    "lattice",
		obs.PhaseCandidates: "candidates",
		obs.PhaseKernel:     "kernel",
		obs.PhaseBind:       "bind",
		obs.PhaseSolve:      "solve",
		obs.PhaseEncode:     "encode",
		obs.PhaseTotal:      "total",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), name)
		}
	}
	if obs.Phase(-1).String() != "unknown" || obs.NumPhases.String() != "unknown" {
		t.Error("out-of-range phases must stringify as unknown")
	}
}

// TestTraceConcurrent: concurrent observers on one trace (advisors
// stamped from one core.Shared, solving on many goroutines) must not
// lose durations; -race covers the memory model, the sum covers the
// arithmetic.
func TestTraceConcurrent(t *testing.T) {
	tr := new(obs.Trace)
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Observe(obs.PhaseBind, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := tr.Duration(obs.PhaseBind); got != goroutines*perG*time.Microsecond {
		t.Errorf("Duration = %v, want %v", got, goroutines*perG*time.Microsecond)
	}
}
