package workload

import (
	"fmt"
	"slices"

	"vmcloud/internal/jsonenc"
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
	// paper is Sales(lat, 10), and paperJSON the same in resolved wire
	// form (JSON).
	paper     []Query
	paperJSON []QueryJSON
	// keys are each cuboid's key bytes, by lattice id (QueryJSON.AppendJSON).
	keys []queryKey
}

// queryKey is what QueryJSON.AppendJSON copies for a query in resolved
// wire form on one cuboid, everything but the frequency's digits and the
// closing brace. names are the two names such a query is usually given —
// its paper query's ("profit per year and country", "" on a cuboid no
// paper query is on) and its default ("year×country") — and named[i] is
// the query's bytes under names[i]:
//
//	{"name":"year×country","levels":["year","country"],"point":[2,2],"frequency":
//
// tail is the part after the name, for a query named otherwise.
type queryKey struct {
	names [2]string
	named [2][]byte
	tail  []byte
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
	t.keys = make([]queryKey, l.NumNodes())
	for id, n := range l.Nodes() {
		k := &t.keys[id]
		k.tail = append([]byte(`,"levels":`), jsonenc.AppendStrings(nil, t.levels[id])...)
		k.tail = append(k.tail, `,"point":`...)
		k.tail = append(jsonenc.AppendInts(k.tail, n.Point), `,"frequency":`...)
		k.names[1] = t.names[id]
	}
	for _, q := range t.paper {
		id, _ := l.ID(q.Point)
		t.keys[id].names[0] = q.Name
	}
	for id := range t.keys {
		k := &t.keys[id]
		for i, name := range k.names {
			k.named[i] = append(jsonenc.AppendString([]byte(`{"name":`), name), k.tail...)
		}
	}
	t.paperJSON = w.wire(&t)
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

// SalesJSON is SalesPrefix(n).JSON() copied from the tables, with every
// query's frequency set to frequency when it is positive: one slice,
// nothing looked up. Its level and point slices are shared, read-only.
func SalesJSON(n, frequency int) ([]QueryJSON, error) {
	if err := checkSalesSize(n); err != nil {
		return nil, err
	}
	qs := slices.Clone(sales.paperJSON[:n])
	if frequency > 0 {
		for i := range qs {
			qs[i].Frequency = frequency
		}
	}
	return qs, nil
}

func checkSalesSize(n int) error {
	if n < 1 || n > len(salesOrder) {
		return fmt.Errorf("workload: sales workload size %d out of range 1..%d", n, len(salesOrder))
	}
	return nil
}
