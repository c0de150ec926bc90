// sweep.go implements the tariff-grid sweep: one workload, one
// objective, re-priced across every provider × instance type × fleet
// size cell of a grid. Where Run (the full comparison) layers winners,
// frontiers and break-even flips on top of multiple scenarios, Sweep is
// the raw study underneath — the per-cell bill decomposition the paper's
// cross-tariff tables are made of — and the leanest consumer of the
// structure-sharing comparison kernel: one structural build, then a
// pure re-bill per cell.
package compare

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/report"
	"vmcloud/internal/units"
)

// SweepRequest describes a tariff-grid sweep: the advisory problem of
// Request (the embedded core.Config, under the same rules) restricted to
// a single objective. It mirrors its wire form, SweepRequestJSON. Zero
// values follow the repo convention of selecting the paper's
// experimental defaults.
type SweepRequest struct {
	core.Config

	// Providers are the tariffs to sweep; empty means the full built-in
	// catalog. InstanceTypes and FleetSizes span the grid exactly as in
	// Request.
	Providers     []pricing.Provider
	InstanceTypes []string
	FleetSizes    []int

	// Scenario is the single objective swept: "mv1", "mv2" or "mv3".
	// Empty derives it from the parameters given: mv1 when Budget > 0,
	// mv2 when Limit > 0, mv3 otherwise.
	Scenario string
	// Budget is the MV1 spending limit; required for mv1.
	Budget money.Money
	// Limit is the MV2 response-time limit; required for mv2.
	Limit time.Duration
	// Alpha is the MV3 weight on time in [0,1]; nil selects 0.5.
	Alpha *float64

	// Workers bounds the fan-out worker pool; zero selects GOMAXPROCS.
	Workers int
}

// SweepCell is one grid cell: the objective solved on one tariff.
type SweepCell struct {
	Key
	DatasetSize units.DataSize
	Rec         core.Recommendation
}

// Sweep is the solved grid, ordered by provider, instance type, fleet.
type Sweep struct {
	// Scenario echoes the solved objective.
	Scenario string
	// Cells is the full grid.
	Cells []SweepCell
	// Best is the winning cell's key under the scenario's ranking (the
	// same rule Run's winners use).
	Best Key
	// Skipped lists configurations dropped because the provider does not
	// offer the instance type.
	Skipped []Key
	// Degraded reports whether any cell's search stopped at the request
	// deadline with its best incumbent (see SweepRequest.Ctx); degraded
	// sweeps must not be memoized.
	Degraded bool
}

// canonSweepScenario validates/derives the single swept objective.
func canonSweepScenario(explicit string, haveBudget, haveLimit bool) (string, error) {
	s := strings.ToLower(strings.TrimSpace(explicit))
	if s == "" {
		switch {
		case haveBudget:
			s = "mv1"
		case haveLimit:
			s = "mv2"
		default:
			s = "mv3"
		}
	}
	switch s {
	case "mv1", "mv2", "mv3":
		return s, nil
	default:
		return "", fmt.Errorf("compare: unknown sweep scenario %q (want mv1, mv2 or mv3)", explicit)
	}
}

// normalize validates the request and applies every default, reusing the
// comparison's request normalization for the shared grid fields.
func (r SweepRequest) normalize() (normalized, string, error) {
	scenario, err := canonSweepScenario(r.Scenario, r.Budget > 0, r.Limit > 0)
	if err != nil {
		return normalized{}, "", err
	}
	n, err := Request{
		Config:         r.Config,
		Providers:      r.Providers,
		InstanceTypes:  r.InstanceTypes,
		FleetSizes:     r.FleetSizes,
		Scenarios:      []string{scenario},
		Budget:         r.Budget,
		Limit:          r.Limit,
		Alpha:          r.Alpha,
		BreakEvenSteps: -1, // the sweep has no budget sub-sweep
		Workers:        r.Workers,
	}.normalize()
	if err != nil {
		return normalized{}, "", err
	}
	return n, scenario, nil
}

// RunSweep solves the grid on a bounded worker pool. The
// pricing-invariant structure is built once; every cell is a tariff
// re-bind plus one scenario solve. The result is deterministic for
// identical requests regardless of worker count or scheduling.
func RunSweep(req SweepRequest) (*Sweep, error) {
	n, scenario, err := req.normalize()
	if err != nil {
		return nil, err
	}
	// A sweep cell is a compare cell of the one scenario, with no
	// break-even sweep (normalize), and its winner is compare's.
	results, _, skipped, err := n.solveGrid()
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		Scenario: scenario,
		Cells:    make([]SweepCell, len(results)),
		Best:     pickWinner(scenario, n.scenario(scenario), results).Key,
		Skipped:  skipped,
		Degraded: anyDegraded(results),
	}
	for i := range results {
		r := &results[i]
		sw.Cells[i] = SweepCell{Key: r.Key, DatasetSize: r.DatasetSize, Rec: r.Results[0].Rec}
	}
	return sw, nil
}

// Render produces the human-readable sweep report: the full grid with
// the bill decomposed per cell (compute/storage/transfer — what is
// price), plus the winner line.
func (s *Sweep) Render() string {
	return string(s.AppendReport(make([]byte, 0, 1024)))
}

// AppendReport appends the Render text to dst.
func (s *Sweep) AppendReport(dst []byte) []byte {
	w := jsonenc.Text{Buf: dst}
	s.appendReport(&w)
	return w.Buf
}

var gridHeaders = []string{"configuration", "workload time", "total cost", "compute", "storage", "transfer", "feasible", "views"}

// appendReport writes the report through w; see Comparison.appendReport.
//
//mvlint:hotpath
func (s *Sweep) appendReport(w *jsonenc.Text) {
	w.Buf = append(w.Buf, "scenario "...)
	w.Str(s.Scenario)
	w.Buf = append(w.Buf, " — tariff grid"...)
	w.Newline()
	var (
		t  report.Table
		sb [64]byte
	)
	t.Headers = gridHeaders
	for i := range s.Cells {
		c := &s.Cells[i]
		bill := &c.Rec.Selection.Bill
		t.Cell(c.Key.AppendString(sb[:0]))
		t.Cell(report.AppendHours(sb[:0], c.Rec.Selection.Time))
		t.Cell(bill.Total().AppendString(sb[:0]))
		t.Cell(bill.Compute.Total().AppendString(sb[:0]))
		t.Cell(bill.Storage.AppendString(sb[:0]))
		t.Cell(bill.Transfer.AppendString(sb[:0]))
		t.Cell(strconv.AppendBool(sb[:0], c.Rec.Selection.Feasible))
		t.Cell(strconv.AppendInt(sb[:0], int64(len(c.Rec.Selection.Points)), 10))
		t.EndRow()
	}
	t.AppendText(w)
	w.Buf = append(w.Buf, "best configuration: "...)
	w.Bytes(s.Best.AppendString(sb[:0]))
	w.Newline()
	appendSkipped(w, s.Skipped)
}
