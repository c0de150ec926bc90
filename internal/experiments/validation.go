package experiments

import (
	"fmt"
	"math"
	"time"

	"vmcloud/internal/datagen"
	"vmcloud/internal/engine"
	"vmcloud/internal/lattice"
	"vmcloud/internal/report"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// validationScales are the fact-row scales RunModelValidation measures at:
// from well below the sales lattice's saturation, where the Cardenas
// estimate overstates the Zipf-skewed fine cuboids, to 1M rows.
var validationScales = []int{20_000, 50_000, 200_000, 1_000_000}

// validationSeed is the datagen seed of every validation run.
const validationSeed = 17

// CandidateRows is one HRU candidate's size as the model estimates it and
// as the engine materializes it.
type CandidateRows struct {
	View      string
	Estimated int64 // lattice (Cardenas) rows
	Actual    int64 // rows of the table engine.Executor materialized
}

// ModelValidation is the model-against-engine check at one scale.
type ModelValidation struct {
	FactRows   int
	Candidates []CandidateRows
	// Tau is Kendall's τ-b between the predicted and measured orderings
	// of all 2^len(Candidates) selections.
	Tau float64
	// Wall is the run's wall time: generation, materialization, ranking.
	Wall time.Duration
}

// RunModelValidation checks Formula 9 against the engine at four fact-row
// scales. At each it generates the sales dataset, materializes each HRU candidate
// of the 10-query workload once through engine.Executor, and then, for
// every subset of the candidates, compares the model's predicted scan
// time (Workload.ScanTime over the lattice estimates) with the measured
// one: Σ freq × the rows of the smallest engine-materialized table that
// answers each query — what Executor.Answer scans under that selection,
// routed the way Executor routes. Kendall's τ-b says whether the model
// ranks the selections the way the engine's scans do.
func RunModelValidation() ([]ModelValidation, error) {
	out := make([]ModelValidation, 0, len(validationScales))
	for _, rows := range validationScales {
		mv, err := validateModel(rows)
		if err != nil {
			return nil, err
		}
		out = append(out, mv)
	}
	return out, nil
}

func validateModel(rows int) (ModelValidation, error) {
	start := time.Now()
	ds, err := datagen.GenerateSales(datagen.Config{Rows: rows, Seed: validationSeed})
	if err != nil {
		return ModelValidation{}, err
	}
	ex, err := engine.NewExecutor(ds)
	if err != nil {
		return ModelValidation{}, err
	}
	w, err := workload.Sales(ex.Lat, 10)
	if err != nil {
		return ModelValidation{}, err
	}
	cands, err := views.GenerateCandidates(ex.Lat, w, CandidateBudget)
	if err != nil {
		return ModelValidation{}, err
	}
	mv := ModelValidation{FactRows: rows}
	actual := make([]int64, len(cands))
	for i, c := range cands {
		res, err := ex.Materialize(c.Point)
		if err != nil {
			return ModelValidation{}, err
		}
		node, err := ex.Lat.Node(c.Point)
		if err != nil {
			return ModelValidation{}, err
		}
		actual[i] = int64(res.Table.Rows())
		mv.Candidates = append(mv.Candidates, CandidateRows{View: ex.Lat.Name(c.Point), Estimated: node.Rows, Actual: actual[i]})
	}

	linear := func(s units.DataSize) time.Duration { return time.Duration(s) }
	subsets := 1 << len(cands)
	predicted := make([]float64, subsets)
	measured := make([]float64, subsets)
	sel := make([]lattice.Point, 0, len(cands))
	for mask := range subsets {
		sel = sel[:0]
		for i, c := range cands {
			if mask&(1<<i) != 0 {
				sel = append(sel, c.Point)
			}
		}
		predicted[mask] = float64(w.ScanTime(ex.Lat, sel, linear))
		var scanned int64
		for _, q := range w.Queries {
			// Executor's route: the smallest answering table, the base
			// table first and then candidates in materialization order.
			best := int64(ds.Facts.Rows())
			for i, c := range cands {
				if mask&(1<<i) != 0 && c.Point.FinerOrEqual(q.Point) && actual[i] < best {
					best = actual[i]
				}
			}
			scanned += int64(q.Frequency) * best
		}
		measured[mask] = float64(scanned)
	}
	mv.Tau = kendallTauB(predicted, measured)
	mv.Wall = time.Since(start)
	return mv, nil
}

// kendallTauB is Kendall's rank correlation with the tie correction: pairs
// tied in one ranking count toward that side's denominator only.
func kendallTauB(x, y []float64) float64 {
	var concordant, discordant, tiedX, tiedY float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			dx, dy := x[i]-x[j], y[i]-y[j]
			switch {
			case dx == 0 && dy == 0:
			case dx == 0:
				tiedX++
			case dy == 0:
				tiedY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	return (concordant - discordant) / math.Sqrt((concordant+discordant+tiedX)*(concordant+discordant+tiedY))
}

// ModelValidationTable renders the validation: per scale τ-b and wall
// time, and each candidate's estimated against actual rows.
func ModelValidationTable(vs []ModelValidation) *report.Table {
	t := report.NewTable(fmt.Sprintf("Formula 9 vs engine scans (seed %d): Kendall τ-b over all candidate subsets", validationSeed),
		"fact rows", "subsets", "τ-b", "wall", "view", "estimated rows", "actual rows", "est/actual")
	for _, v := range vs {
		scale := []any{v.FactRows, 1 << len(v.Candidates), fmt.Sprintf("%.4f", v.Tau), v.Wall.Round(time.Millisecond)}
		for _, c := range v.Candidates {
			t.AddRow(append(scale, c.View, c.Estimated, c.Actual, fmt.Sprintf("%.2f", float64(c.Estimated)/float64(c.Actual)))...)
			scale = []any{"", "", "", ""} // the scale's cells head its first row only
		}
	}
	return t
}
