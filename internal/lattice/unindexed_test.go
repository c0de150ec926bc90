package lattice_test

import (
	"reflect"
	"testing"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// TestGenerateCandidatesUnindexed: candidate generation builds its
// answerer lists from AncestorIDs, which on a lattice too large to index
// enumerates by partial-order comparison instead of a bit scan. Both
// routes must yield the same candidates (the indexed one is held to the
// round-by-round reference in internal/views).
func TestGenerateCandidatesUnindexed(t *testing.T) {
	sch, err := schema.Synthetic(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		indexed, err := lattice.New(sch, 300_000_000)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := lattice.New(sch, 300_000_000)
		if err != nil {
			t.Fatal(err)
		}
		bare.DropIndex()
		w, err := workload.Random(indexed, 12, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		w.Queries = append(w.Queries, workload.Query{Name: "base", Point: indexed.Base(), Frequency: 3})
		want, err := views.GenerateCandidates(indexed, w, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := views.GenerateCandidates(bare, w, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: unindexed lattice picked\n%+v\nindexed\n%+v", seed, got, want)
		}
	}
}
