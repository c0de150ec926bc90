package search

import "math"

// energy scalarizes an eval for the Metropolis criterion: the Score plus
// a violation penalty heavy enough that no feasible state is ever worse
// than an infeasible one within the same neighborhood scale. The penalty
// weight is derived per run from the start state's scale so the criterion
// behaves the same whether scores are hours or dollars.
func (s *solver) energy(e eval, penalty float64) float64 {
	// The float64 conversion rounds the product before the add, so no port
	// fuses the two into one multiply-add (scripts/nofma.sh).
	return s.obj.Score(e.o) + float64(penalty*e.viol)
}

// anneal runs simulated annealing with a geometric cooling schedule from
// the given start. Each temperature level proposes DefaultAnnealMoves
// random add/drop/swap moves; improving moves are always accepted,
// worsening ones with probability exp(−Δ/T). A proposal is priced by
// the incremental engine's Probe, O(affected queries), and the
// engine steps onto it only when it is accepted. The
// initial temperature is calibrated from the observed energy deltas of a
// short warm-up walk, so the schedule adapts to the objective's units.
// Returns the best state seen (not the final one), wrapped in the stop
// sentinel if the budget ran dry or the solve deadline passed.
func (s *solver) anneal(start []bool, startEval eval) ([]bool, eval, error) {
	n := len(start)
	if n == 0 {
		return append([]bool(nil), start...), startEval, nil
	}
	penalty := 1000 * (math.Abs(s.obj.Score(startEval.o)) + 1)

	cur := append([]bool(nil), start...)
	curEval := startEval
	curEnergy := s.energy(curEval, penalty)
	best := append([]bool(nil), cur...)
	bestEval := curEval
	// Pin the engine at the start state (free: no evaluation is charged;
	// the annealed walk then advances it move by move).
	if err := s.pin(cur); err != nil {
		return best, eval{}, err
	}

	// Warm-up: sample a few random neighbors to calibrate T0 at the mean
	// absolute energy delta — acceptance of a typical uphill move starts
	// near exp(−1).
	var deltaSum float64
	deltas := 0
	for k := 0; k < 8; k++ {
		i, j := s.proposeMove()
		if i < 0 {
			break
		}
		e, err := s.probeMove(i, j)
		if err != nil {
			if stopped(err) {
				return best, bestEval, err
			}
			return best, eval{}, err
		}
		deltaSum += math.Abs(s.energy(e, penalty) - curEnergy)
		deltas++
	}
	temp := 1.0
	if deltas > 0 && deltaSum > 0 {
		temp = deltaSum / float64(deltas)
	}
	floor := temp * 1e-3

	for temp > floor {
		for m := 0; m < DefaultAnnealMoves; m++ {
			i, j := s.proposeMove()
			if i < 0 {
				return best, bestEval, nil
			}
			// Every proposal is priced without moving the engine; only an
			// accepted one moves it.
			e, err := s.probeMove(i, j)
			if err != nil {
				if stopped(err) {
					return best, bestEval, err
				}
				return best, eval{}, err
			}
			energy := s.energy(e, penalty)
			delta := energy - curEnergy
			if delta <= 0 || s.rng.Float64() < math.Exp(-delta/temp) {
				s.applyMove(cur, i, j)
				s.flip(i, j)
				curEval, curEnergy = e, energy
				if s.better(curEval, bestEval) {
					copy(best, cur)
					bestEval = curEval
				}
			}
		}
		temp *= DefaultCooling
	}
	return best, bestEval, nil
}

// proposeMove draws one random neighborhood move from the current
// state: (i, -1) flips bit i (add or drop), (i, j) swaps selected i for
// unselected j, each the r-th set or clear bit of the state words in
// ascending order. Swap is only proposed when both sides exist. Returns
// (-1, -1) when the state has no neighbors (n == 0).
//
//mvlint:hotpath
func (s *solver) proposeMove() (int, int) {
	n := len(s.cands)
	if n == 0 {
		return -1, -1
	}
	// One third swaps when possible, the rest flips.
	if count := s.selectedCount(); count > 0 && count < n && s.rng.Intn(3) == 0 {
		i := s.nth(false, s.rng.Intn(count))
		j := s.nth(true, s.rng.Intn(n-count))
		return i, j
	}
	return s.rng.Intn(n), -1
}
