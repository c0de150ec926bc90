package workload

import (
	"fmt"
	"slices"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
)

// salesTables is everything canonicalizing a wire workload needs of the
// sales lattice, none of which depends on how many rows it holds: which
// level names and points exist, what each cuboid is called, and the
// paper's ten queries. Built once; nothing in it is written afterwards,
// and the slices it hands out are shared.
type salesTables struct {
	// lat is the sales lattice at one fact row: its coordinate checks
	// and their error texts are the wire format's, its sizes are not
	// used.
	lat *lattice.Lattice
	// names and levels are each cuboid's "year×country" name and level
	// names, by lattice id.
	names  []string
	levels [][]string
	// paper is Sales(lat, 10).
	paper []Query
}

var sales = func() salesTables {
	l, err := lattice.New(schema.Sales(), 1)
	if err != nil {
		panic(err)
	}
	t := salesTables{lat: l, names: make([]string, l.NumNodes()), levels: make([][]string, l.NumNodes())}
	for id, n := range l.Nodes() {
		t.names[id] = l.Name(n.Point)
		for d, lv := range n.Point {
			t.levels[id] = append(t.levels[id], l.Schema.Dimensions[d].Levels[lv].Name)
		}
		t.levels[id] = slices.Clip(t.levels[id])
	}
	w, err := Sales(l, len(salesOrder))
	if err != nil {
		panic(err)
	}
	t.paper = w.Queries
	return t
}()

// SalesLattice writes into l, and returns, the sales lattice at
// factRows; a nil l stands for a new lattice. It shares the tables'
// lattice's points, radices and strides (lattice.WithFactRows), so a
// caller that builds one per request pays for the sixteen nodes'
// statistics and nothing else, and a caller that hands back the same l
// for every request pays for no allocation either.
func SalesLattice(l *lattice.Lattice, factRows int64) (*lattice.Lattice, error) {
	return sales.lat.WithFactRows(l, factRows)
}

// SalesNames is each sales cuboid's "year×country" name by lattice id;
// shared and read-only.
func SalesNames() []string { return sales.names }

// SalesPrefix is Sales over the sales schema itself, from the tables:
// the first n of the paper's ten queries, their points shared and
// read-only.
func SalesPrefix(n int) (Workload, error) {
	if err := checkSalesSize(n); err != nil {
		return Workload{}, err
	}
	return Workload{Queries: slices.Clone(sales.paper[:n])}, nil
}

func checkSalesSize(n int) error {
	if n < 1 || n > len(salesOrder) {
		return fmt.Errorf("workload: sales workload size %d out of range 1..%d", n, len(salesOrder))
	}
	return nil
}
