package search

import "math/bits"

// hillClimb runs steepest-ascent local search from the given start: each
// round it prices every neighbor in the add/drop/swap neighborhood and
// moves to the strictly best improving one, stopping at a local optimum
// or when the evaluation budget runs dry / the solve deadline passes
// (returning the best state reached, wrapped in the stop sentinel).
//
// Neighborhoods:
//
//   - add: materialize one currently-unselected candidate,
//   - drop: unmaterialize one selected candidate,
//   - swap: drop one selected and add one unselected in a single move —
//     the move that lets a budget-tight state trade a view for a better
//     one without passing through an over-budget intermediate.
//
// Every neighbor is priced by the incremental engine's Probe, which
// leaves its state as it found it (cache hits don't even call it:
// neighbor keys are XORs of the selection words), so a full scan costs
// O(neighbors × affected queries), not O(neighbors × workload ×
// selection), and the engine
// moves only onto the best neighbor. A swap row — one selected
// candidate against every unselected one — takes its candidate out of
// the engine once for the whole row (probeSwapRow).
//
// The scan order is deterministic (ascending candidate index, adds/drops
// before swaps) and ties keep the earliest neighbor, so identical inputs
// always climb identical paths.
func (s *solver) hillClimb(start []bool) ([]bool, eval, error) {
	cur := append([]bool(nil), start...)
	curEval, err := s.evaluate(cur) // pins the engine at cur
	if err != nil {
		if stopped(err) {
			// Cannot even price the start; fall back to the empty set,
			// which solve() always prices first (cache hit).
			empty := make([]bool, len(cur))
			e, err2 := s.evaluate(empty)
			if err2 != nil {
				return empty, eval{}, err
			}
			return empty, e, err
		}
		return cur, eval{}, err
	}
	n := len(cur)
	for {
		bestI, bestJ := -1, -1
		bestEval := curEval
		improved := false
		scan := func() error {
			// Adds and drops: flip one bit.
			for i := 0; i < n; i++ {
				e, err := s.probeMove(i, -1)
				if err != nil {
					return err
				}
				if s.better(e, bestEval) {
					bestI, bestJ, bestEval, improved = i, -1, e, true
				}
			}
			// Swaps: one selected out, one unselected in, each walked in
			// ascending order off the state words. A row leaves the
			// engine and the state as it found them.
			for w, word := range s.state {
				for ; word != 0; word &= word - 1 {
					i := w<<6 | bits.TrailingZeros64(word)
					j, e, err := s.probeSwapRow(i, bestEval)
					if j >= 0 {
						bestI, bestJ, bestEval, improved = i, j, e, true
					}
					if err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := scan(); err != nil {
			if stopped(err) {
				// Apply the best move found so far, if any, then stop.
				if improved {
					s.applyMove(cur, bestI, bestJ)
					s.flip(bestI, bestJ)
					curEval = bestEval
				}
				return cur, curEval, err
			}
			return cur, eval{}, err
		}
		if !improved {
			return cur, curEval, nil
		}
		s.applyMove(cur, bestI, bestJ)
		s.flip(bestI, bestJ)
		curEval = bestEval
	}
}
