package optimizer

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmcloud/internal/units"
	"vmcloud/internal/views"
)

// FuzzIncrementalMoves drives the delta engine with arbitrary move
// sequences over fuzzer-chosen instances. Before every move it prices
// read-only the move's flip, a swap of a random selected and unselected
// pair when the subset has both, and a random pair that is no such swap
// (checkProbe: each probe leaves Words and Moves alone; a flip or swap
// equals the time and bill total of the engine's Score once moved onto
// that neighbor, whose bill equals Evaluator.Evaluate's bit for bit, and
// a malformed swap is rejected). freqShift scales every query frequency by 2^(freqShift % 48), up
// to where the aggregates overflow and Plan.Bill rejects the subset: the
// three must then fail alike. fullDisk grows the dataset to within half
// the pool's bytes of the largest DataSize, so that larger selections
// overflow the stored volume, dataset plus views, and must fail alike
// too. The byte stream doubles as the move script: each byte picks the
// candidate to flip.
func FuzzIncrementalMoves(f *testing.F) {
	f.Add(int64(1), false, uint8(0), false, []byte{0, 1, 2, 1, 0})
	f.Add(int64(42), true, uint8(0), false, []byte{11, 3, 3, 7, 9, 11, 0, 250})
	f.Add(int64(-5), true, uint8(0), false, []byte{})
	f.Add(int64(3), false, uint8(40), false, []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(4), true, uint8(0), true, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, deferredPolicy bool, freqShift uint8, fullDisk bool, moves []byte) {
		if len(moves) > 128 {
			moves = moves[:128]
		}
		policy := views.ImmediateMaintenance
		if deferredPolicy {
			policy = views.DeferredMaintenance
		}
		rng := rand.New(rand.NewSource(seed))
		ev, cands := incrementalFixture(t, rng, policy)
		w, plan := ev.W, ev.Base
		if shift := freqShift % 48; shift > 0 {
			w.Queries = slices.Clone(w.Queries)
			for q := range w.Queries {
				w.Queries[q].Frequency <<= shift
			}
		}
		if fullDisk {
			var pool units.DataSize
			for _, c := range cands {
				pool += c.Size
			}
			plan.DatasetSize = math.MaxInt64 - pool/2
		}
		ev, err := NewEvaluator(ev.Est, w, plan)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(ev, cands)
		if err != nil {
			t.Fatal(err)
		}
		inc := sess.Engine()
		sel := make([]bool, len(cands))
		for _, b := range moves {
			i := int(b) % len(cands)
			checkProbe(t, ev, cands, inc, sel, i, -1)
			if out, in, ok := randomSwap(rng, sel); ok {
				checkProbe(t, ev, cands, inc, sel, out, in)
			}
			if j := rng.Intn(len(cands)); !sel[i] || sel[j] {
				checkProbe(t, ev, cands, inc, sel, i, j)
			}
			toggle(inc, i)
			sel[i] = !sel[i]
		}
	})
}

// checkProbe holds inc.Probe(i, j) — the subset sel (which inc stands
// on) with i flipped, or with selected i swapped for unselected j — to
// the engine moved onto that neighbor, and that to Evaluate of it: the
// probe's time and cost are the moved Score's time and Bill.Total(), or
// the three fail alike, and the moved bill is Evaluate's, field for
// field. A pair that is no such swap must be rejected with errProbeSwap
// and a zero outcome. The probe must leave the selection words and the
// move count as they were; the engine is moved back afterwards.
func checkProbe(t *testing.T, ev *Evaluator, cands []views.Candidate, inc *IncrementalEvaluator, sel []bool, i, j int) {
	t.Helper()
	words, moves := slices.Clone(inc.Words()), inc.Moves()
	po, perr := inc.Probe(i, j)
	if !slices.Equal(inc.Words(), words) || inc.Moves() != moves {
		t.Fatalf("probe (%d, %d) moved the engine: words %x → %x, moves %d → %d", i, j, words, inc.Words(), moves, inc.Moves())
	}
	if j >= 0 && (!sel[i] || sel[j]) {
		if perr != errProbeSwap || po != (Outcome{}) {
			t.Fatalf("malformed swap probe (%d, %d) of %v: (%+v, %v), want errProbeSwap", i, j, sel, po, perr)
		}
		return
	}
	next := slices.Clone(sel)
	next[i] = !next[i]
	toggle(inc, i)
	if j >= 0 {
		next[j] = !next[j]
		toggle(inc, j)
	}
	st, sb, serr := inc.Score()
	if j >= 0 {
		toggle(inc, j)
	}
	toggle(inc, i)
	et, eb, eerr := ev.Evaluate(selectedPoints(cands, next))
	if errText(perr) != errText(serr) || errText(perr) != errText(eerr) ||
		po != (Outcome{st, sb.Total()}) || st != et || sb != eb {
		t.Fatalf("probe (%d, %d) of %v:\nprobe    (%+v, %v)\nmoved    (%v, %+v, %v)\nevaluate (%v, %+v, %v)",
			i, j, sel, po, perr, st, sb, serr, et, eb, eerr)
	}
}

// randomSwap draws a selected candidate and an unselected one, if the
// subset has both.
func randomSwap(rng *rand.Rand, sel []bool) (out, in int, ok bool) {
	var on, off []int
	for c, s := range sel {
		if s {
			on = append(on, c)
		} else {
			off = append(off, c)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0, 0, false
	}
	return on[rng.Intn(len(on))], off[rng.Intn(len(off))], true
}

// toggle adds candidate i to the engine's subset or drops it.
func toggle(inc *IncrementalEvaluator, i int) {
	if inc.Selected(i) {
		inc.Drop(i)
	} else {
		inc.Add(i)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
