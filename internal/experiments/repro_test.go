package experiments

import (
	"testing"

	"vmcloud/internal/core"
	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/workload"
)

// TestLargeLatticeReproducibleViaAdvisor pins the reproducibility claim
// of RunLargeLattice's doc comment: the experiment's search numbers come
// out byte-exact from the product path (core.New with Solver "search" +
// the same seed), built here independently of the experiment's own
// settings.
func TestLargeLatticeReproducibleViaAdvisor(t *testing.T) {
	r, err := RunLargeLattice(1)
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := schema.Synthetic(4, 4)
	l, _ := lattice.New(sch, 1_000_000_000)
	w, _ := workload.Random(l, 20, 8, 1)
	adv, err := core.New(core.Config{
		Schema: sch, FactRows: 1_000_000_000, Workload: w,
		CandidateBudget: 32, MaintenanceRuns: 6, UpdateRatio: 0.50,
		Solver: core.SolverSearch, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := adv.AdviseBudget(r.Budget)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Selection.Time != r.SearchMV1.Time || rec.Selection.Bill.Total() != r.SearchMV1.Bill.Total() {
		t.Fatalf("advisor search %v/%v != experiment %v/%v",
			rec.Selection.Time, rec.Selection.Bill.Total(), r.SearchMV1.Time, r.SearchMV1.Bill.Total())
	}
	t.Logf("reproduced: %v / %v", rec.Selection.Time, rec.Selection.Bill.Total())
}
