package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Phase identifies one stage of a cold solve, in pipeline order.
type Phase int

const (
	// PhaseLattice: building the search lattice from the workload
	// (lattice.New, workload validation, result-size estimation).
	PhaseLattice Phase = iota
	// PhaseCandidates: enumerating candidate views over the lattice.
	PhaseCandidates
	// PhaseKernel: building the tariff-independent comparison kernel.
	PhaseKernel
	// PhaseBind: binding the kernel to a concrete provider tariff.
	PhaseBind
	// PhaseSolve: the knapsack/search solve itself (all scenarios).
	PhaseSolve
	// PhaseEncode: JSON-encoding the response body.
	PhaseEncode
	// PhaseTotal: wall time of the whole cold solve, recorded by the
	// serving layer around everything above.
	PhaseTotal
	// NumPhases is the arena size; keep it last.
	NumPhases
)

// phaseNames are the stable wire names used in the X-Solve-Phases
// header, the per-phase histogram label, and slow-request logs.
var phaseNames = [NumPhases]string{
	PhaseLattice:    "lattice",
	PhaseCandidates: "candidates",
	PhaseKernel:     "kernel",
	PhaseBind:       "bind",
	PhaseSolve:      "solve",
	PhaseEncode:     "encode",
	PhaseTotal:      "total",
}

// String returns the phase's wire name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// Trace is a per-solve span recorder: a fixed arena of per-phase
// duration accumulators. It is deliberately not a general tracer —
// phases are a closed enum, recording is an atomic add into the arena
// (no interface boxing, no slices growing, no locks), and the atomics
// make it safe for compare's parallel per-cell fan-out, where many
// worker goroutines bind and solve concurrently under one trace.
//
// All methods are nil-safe: a nil *Trace records nothing, so the
// solver packages thread it unconditionally and only the serving layer
// decides whether tracing is on. The timer helpers keep the
// determinism-scoped packages (core, optimizer, search, compare) from
// calling time.Now themselves: obs owns the clock.
type Trace struct {
	durs [NumPhases]atomic.Int64
}

// NewTrace returns an empty trace arena.
func NewTrace() *Trace { return &Trace{} }

// StartTimer begins a phase measurement. On a nil trace it returns the
// zero time, which the matching ObserveSince treats as "not recording".
//
//mvlint:hotpath
func (t *Trace) StartTimer() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince accumulates the time elapsed since t0 (a StartTimer
// result) into phase p. No-op on a nil trace or zero t0.
//
//mvlint:hotpath
func (t *Trace) ObserveSince(p Phase, t0 time.Time) {
	if t == nil || t0.IsZero() {
		return
	}
	t.durs[p].Add(int64(time.Since(t0)))
}

// Duration reads the accumulated time for phase p.
func (t *Trace) Duration(p Phase) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.durs[p].Load())
}

// AppendHeader renders the trace as the compact `X-Solve-Phases` header
// value: `lattice=52µs;candidates=110µs;...;total=3.2ms`, skipping
// phases that recorded nothing.
func (t *Trace) AppendHeader(b []byte) []byte {
	if t == nil {
		return b
	}
	first := true
	for p := Phase(0); p < NumPhases; p++ {
		d := time.Duration(t.durs[p].Load())
		if d == 0 {
			continue
		}
		if !first {
			b = append(b, ';')
		}
		first = false
		b = append(b, phaseNames[p]...)
		b = append(b, '=')
		b = append(b, d.String()...)
	}
	return b
}

// String renders the same form as AppendHeader.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	return string(t.AppendHeader(nil))
}

// AppendJSON renders the trace as a JSON object of phase -> seconds,
// for structured slow-request logs. Skips empty phases.
func (t *Trace) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if t != nil {
		first := true
		for p := Phase(0); p < NumPhases; p++ {
			d := time.Duration(t.durs[p].Load())
			if d == 0 {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '"')
			b = append(b, phaseNames[p]...)
			b = append(b, `":`...)
			b = strconv.AppendFloat(b, d.Seconds(), 'g', -1, 64)
		}
	}
	return append(b, '}')
}
