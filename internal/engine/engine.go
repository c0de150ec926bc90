// Package engine executes aggregation queries over columnar tables: scan,
// hash group-by to any coarser lattice point, and measure re-aggregation.
//
// It is the single-node stand-in for the paper's Pig-on-Hadoop execution
// layer. Because it can aggregate *any* table whose grain is fine enough —
// not just the base fact table — the same code path both materializes views
// and answers queries from them (rollup), which is exactly the capability
// the paper's processing-cost model (Formula 9/10) prices;
// experiments.RunModelValidation checks that model against its scans.
//
// Measure semantics under re-aggregation: Sum sums, MinAgg takes the min,
// MaxAgg takes the max, and Count *sums stored counts* — a base fact table
// with a Count measure stores 1 per row, so counts roll up correctly from
// partially aggregated views.
package engine

import (
	"fmt"
	"sort"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/storage"
	"vmcloud/internal/units"
)

// Stats records the work performed by one aggregation, the currency the
// cluster simulator converts into cloud compute hours.
type Stats struct {
	// RowsScanned is the number of source rows read.
	RowsScanned int64
	// BytesScanned is the estimated volume read (rows × schema row width).
	BytesScanned units.DataSize
	// Groups is the number of output rows produced.
	Groups int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.RowsScanned += other.RowsScanned
	s.BytesScanned += other.BytesScanned
	s.Groups += other.Groups
}

// Result is an aggregation output: a table at the target point plus stats.
type Result struct {
	Table *storage.Table
	Stats Stats
}

// Options tunes an aggregation.
type Options struct {
	// Name overrides the output table name.
	Name string
}

// Aggregate rolls table src up to the coarser point target, producing a new
// table. src must be at least as fine as target in every dimension.
// Output rows are sorted by composite key, so results are deterministic.
func Aggregate(ds *storage.Dataset, src *storage.Table, target lattice.Point, opts Options) (*Result, error) {
	if ds == nil || src == nil {
		return nil, fmt.Errorf("engine: nil dataset or source")
	}
	if len(target) != len(ds.Schema.Dimensions) {
		return nil, fmt.Errorf("engine: target %v has %d dims, schema has %d", target, len(target), len(ds.Schema.Dimensions))
	}
	if !src.Point.FinerOrEqual(target) {
		return nil, fmt.Errorf("engine: table %s at %v cannot answer point %v", src.Name, src.Point, target)
	}
	if len(src.Measures) != len(ds.Schema.Measures) {
		return nil, fmt.Errorf("engine: table %s has %d measures, schema has %d", src.Name, len(src.Measures), len(ds.Schema.Measures))
	}

	lifts, radices, err := buildLifts(ds, src, target)
	if err != nil {
		return nil, err
	}

	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("agg(%s)", src.Name)
	}

	kinds := make([]schema.MeasureKind, len(ds.Schema.Measures))
	for i, m := range ds.Schema.Measures {
		kinds[i] = m.Kind
	}

	// Scan into a flat slot table (see shardTable): one map probe per
	// row, zero per-group allocations.
	n := src.Rows()
	st := shardTable{idx: make(map[int64]int32)}
	st.scan(src, target, lifts, radices, kinds)

	out, err := st.emit(name, target, kinds, len(target))
	if err != nil {
		return nil, err
	}
	// Null out key columns at ALL levels: their codes are always 0 and the
	// convention is a nil column.
	for d := range target {
		if target[d] == len(ds.Schema.Dimensions[d].Levels)-1 {
			out.Keys[d] = nil
		}
	}
	return &Result{
		Table: out,
		Stats: Stats{
			RowsScanned:  int64(n),
			BytesScanned: ds.Schema.RowBytes.MulInt(int64(n)),
			Groups:       out.Rows(),
		},
	}, nil
}

// lifter maps a source-level key code to the target-level code.
type liftFn func(int32) int32

func buildLifts(ds *storage.Dataset, src *storage.Table, target lattice.Point) ([]liftFn, []int64, error) {
	lifts := make([]liftFn, len(target))
	radices := make([]int64, len(target))
	for d := range target {
		dim := ds.Schema.Dimensions[d]
		radices[d] = int64(dim.Levels[target[d]].Cardinality)
		if target[d] == len(dim.Levels)-1 {
			lifts[d] = nil // ALL level: constant 0
			continue
		}
		chain, err := ds.MapChain(d, src.Point[d], target[d])
		if err != nil {
			return nil, nil, err
		}
		if len(chain) == 0 {
			lifts[d] = func(k int32) int32 { return k }
			continue
		}
		c := chain
		lifts[d] = func(k int32) int32 {
			for _, m := range c {
				k = m[k]
			}
			return k
		}
	}
	return lifts, radices, nil
}

// shardTable is Aggregate's private aggregation state: a composite-key
// index into flat, slot-major key/measure buffers. Appending a group
// costs amortized zero allocations, unlike a map of per-group objects.
type shardTable struct {
	idx  map[int64]int32 // composite key → slot
	ids  []int64         // composite key per slot, first-seen order
	keys []int32         // group keys, dims per slot
	vals []int64         // measure accumulators, measures per slot
}

// scan aggregates every row of src into the table.
func (st *shardTable) scan(src *storage.Table, target lattice.Point, lifts []liftFn, radices []int64, kinds []schema.MeasureKind) {
	nm := len(kinds)
	rowKeys := make([]int32, len(target))
	for r := 0; r < src.Rows(); r++ {
		var composite int64
		for d := range target {
			var k int32
			if lifts[d] != nil {
				k = lifts[d](src.Keys[d][r])
			}
			rowKeys[d] = k
			composite = composite*radices[d] + int64(k)
		}
		slot, ok := st.idx[composite]
		if !ok {
			slot = int32(len(st.ids))
			st.idx[composite] = slot
			st.ids = append(st.ids, composite)
			st.keys = append(st.keys, rowKeys...)
			for _, kind := range kinds {
				st.vals = append(st.vals, identity(kind))
			}
		}
		base := int(slot) * nm
		for m, kind := range kinds {
			st.vals[base+m] = combine(kind, st.vals[base+m], src.Measures[m][r])
		}
	}
}

// emit materializes the table's groups as a storage table in composite
// key order (the deterministic output contract of Aggregate).
func (st *shardTable) emit(name string, target lattice.Point, kinds []schema.MeasureKind, dims int) (*storage.Table, error) {
	nm := len(kinds)
	order := make([]int32, len(st.ids))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return st.ids[order[i]] < st.ids[order[j]] })
	out := storage.NewTable(name, target, nm, len(st.ids))
	for _, slot := range order {
		if err := out.Append(st.keys[int(slot)*dims:(int(slot)+1)*dims], st.vals[int(slot)*nm:(int(slot)+1)*nm]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func identity(k schema.MeasureKind) int64 {
	switch k {
	case schema.MinAgg:
		return int64(^uint64(0) >> 1) // MaxInt64
	case schema.MaxAgg:
		return -int64(^uint64(0)>>1) - 1 // MinInt64
	default:
		return 0
	}
}

func combine(k schema.MeasureKind, acc, v int64) int64 {
	switch k {
	case schema.MinAgg:
		if v < acc {
			return v
		}
		return acc
	case schema.MaxAgg:
		if v > acc {
			return v
		}
		return acc
	default: // Sum and Count both sum stored values
		return acc + v
	}
}
