package search

import (
	"fmt"

	"vmcloud/internal/optimizer"
	"vmcloud/internal/views"
)

// ParetoSweep solves each scenario in turn by metaheuristic search: an
// MV3 sweep of α over [0,1] traces an approximate time/cost pareto
// front. All steps share one exact-evaluation cache and one evaluation
// budget (Options.MaxEvals bounds the whole sweep, not each step), and
// each step warm-starts from the previous step's best state — adjacent α
// optima are usually near each other, so the sweep costs far less than
// independent solves. Dominance filtering is left to the caller: the
// sweep returns one selection per scenario, dominated or not.
func ParetoSweep(ev *optimizer.Evaluator, cands []views.Candidate, scs []optimizer.Scenario, opts Options) ([]optimizer.Selection, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("search: a sweep needs at least one scenario")
	}
	s, err := newSolver(ev, cands, scs[0], opts)
	if err != nil {
		return nil, err
	}
	out := make([]optimizer.Selection, len(scs))
	var warm []bool
	for i, sc := range scs {
		s.obj = sc
		if out[i], warm, err = s.solve(warm); err != nil {
			return nil, err
		}
	}
	return out, nil
}
