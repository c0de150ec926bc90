// Package schema describes star schemas with dimension hierarchies — the
// metadata layer under the sales warehouse of the paper's running example
// (Table 1: Year, Month, Day, Country, Region, Department, Profit).
//
// Each dimension is a linear hierarchy of levels ordered fine → coarse and
// implicitly topped by the ALL level (a single value), so the sales schema's
// two dimensions Time (day→month→year→ALL) and Geography
// (department→region→country→ALL) induce the 4×4 = 16-cuboid lattice the
// view-selection machinery works over.
package schema

import (
	"fmt"
	"math"

	"vmcloud/internal/units"
)

// AllLevel is the name of the implicit coarsest level of every hierarchy.
const AllLevel = "all"

// Level is one granularity of a dimension hierarchy.
type Level struct {
	// Name identifies the level, e.g. "month".
	Name string
	// Cardinality is the number of distinct values at this level.
	Cardinality int
}

// Dimension is a linear hierarchy of levels ordered fine → coarse. The ALL
// level is appended automatically by NewDimension and always last.
type Dimension struct {
	Name   string
	Levels []Level
}

// NewDimension builds a dimension from fine→coarse levels, appending ALL.
func NewDimension(name string, levels ...Level) Dimension {
	ls := make([]Level, 0, len(levels)+1)
	ls = append(ls, levels...)
	ls = append(ls, Level{Name: AllLevel, Cardinality: 1})
	return Dimension{Name: name, Levels: ls}
}

// LevelIndex returns the index of the named level, fine = 0.
func (d Dimension) LevelIndex(name string) (int, error) {
	for i, l := range d.Levels {
		if l.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("schema: dimension %s has no level %q", d.Name, name)
}

// NumLevels returns the number of levels including ALL.
func (d Dimension) NumLevels() int { return len(d.Levels) }

// MeasureKind enumerates the supported additive measure aggregations.
type MeasureKind int

const (
	// Sum accumulates the measure (profit totals).
	Sum MeasureKind = iota
	// Count counts contributing fact rows.
	Count
	// MinAgg keeps the minimum.
	MinAgg
	// MaxAgg keeps the maximum.
	MaxAgg
)

// String implements fmt.Stringer.
func (k MeasureKind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case MinAgg:
		return "min"
	case MaxAgg:
		return "max"
	default:
		return fmt.Sprintf("MeasureKind(%d)", int(k))
	}
}

// Measure is a numeric fact attribute and its default aggregation.
type Measure struct {
	Name string
	Kind MeasureKind
}

// Schema is a star schema: dimensions plus measures.
type Schema struct {
	Name       string
	Dimensions []Dimension
	Measures   []Measure
	// RowBytes is the average encoded width of one fact row; used by the
	// size estimators to convert row counts into data volumes.
	RowBytes units.DataSize
}

// Validate checks structural invariants.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: unnamed schema")
	}
	if len(s.Dimensions) == 0 {
		return fmt.Errorf("schema %s: no dimensions", s.Name)
	}
	seen := map[string]bool{}
	for _, d := range s.Dimensions {
		if len(d.Levels) < 2 {
			return fmt.Errorf("schema %s: dimension %s has no levels besides ALL", s.Name, d.Name)
		}
		if d.Levels[len(d.Levels)-1].Name != AllLevel {
			return fmt.Errorf("schema %s: dimension %s does not end with ALL", s.Name, d.Name)
		}
		prev := 0
		for i, l := range d.Levels {
			if l.Cardinality < 1 {
				return fmt.Errorf("schema %s: level %s.%s has cardinality %d", s.Name, d.Name, l.Name, l.Cardinality)
			}
			if seen[l.Name] && l.Name != AllLevel {
				return fmt.Errorf("schema %s: duplicate level name %q", s.Name, l.Name)
			}
			seen[l.Name] = true
			// Coarser levels cannot have more values than finer ones.
			if i > 0 && l.Cardinality > prev {
				return fmt.Errorf("schema %s: level %s.%s cardinality %d exceeds finer level's %d",
					s.Name, d.Name, l.Name, l.Cardinality, prev)
			}
			prev = l.Cardinality
		}
	}
	if len(s.Measures) == 0 {
		return fmt.Errorf("schema %s: no measures", s.Name)
	}
	if s.RowBytes <= 0 {
		return fmt.Errorf("schema %s: non-positive RowBytes", s.Name)
	}
	return nil
}

// Dimension returns the dimension with the given name.
func (s *Schema) Dimension(name string) (Dimension, int, error) {
	for i, d := range s.Dimensions {
		if d.Name == name {
			return d, i, nil
		}
	}
	return Dimension{}, 0, fmt.Errorf("schema %s: no dimension %q", s.Name, name)
}

// MapName names the hierarchy mapping from one level to the next coarser
// level of a dimension, e.g. "day->month". Datasets publish a child→parent
// index array under this name for every adjacent level pair.
func MapName(from, to string) string { return from + "->" + to }

// Synthetic builds a deterministic star schema with dims dimensions and
// levels hierarchy levels per dimension (counting the implicit ALL
// level), inducing a levels^dims-cuboid lattice. It exists to stress the
// lattice machinery and the metaheuristic view-selection solvers beyond
// the paper's 2-dimension, 16-cuboid sales schema — e.g. Synthetic(4, 4)
// yields the 256-cuboid lattice the large-schema experiments run on.
//
// Dimension d is named "dim<d>" with levels "d<d>l<k>" (k = 0 finest).
// The finest level of dimension d has cardinality 512·(d+1) and each
// coarser level divides it by 8, so dimensions are asymmetric (as real
// schemas are) while cardinalities stay strictly non-increasing
// coarse-ward. The single measure is a summed "value"; RowBytes grows
// with the dimension count.
func Synthetic(dims, levels int) (*Schema, error) {
	if dims < 1 {
		return nil, fmt.Errorf("schema: synthetic schema needs at least 1 dimension, got %d", dims)
	}
	if levels < 2 {
		return nil, fmt.Errorf("schema: synthetic schema needs at least 2 levels per dimension (one plus ALL), got %d", levels)
	}
	// The lattice has levels^dims nodes and the finest cardinality grows
	// as factor^(levels-2); bound the node count (the quantity that
	// actually OOMs lattice construction) and the hierarchy depth (the
	// quantity that overflows cardinality arithmetic).
	if levels > 12 {
		return nil, fmt.Errorf("schema: synthetic schema depth %d too large (max 12 levels per dimension)", levels)
	}
	const maxNodes = 1 << 20
	nodes := 1
	for d := 0; d < dims; d++ {
		nodes *= levels
		if nodes > maxNodes {
			return nil, fmt.Errorf("schema: synthetic schema %d×%d induces more than %d cuboids", dims, levels, maxNodes)
		}
	}
	const factor = 8
	s := &Schema{
		Name:     fmt.Sprintf("synthetic-%dx%d", dims, levels),
		Measures: []Measure{{Name: "value", Kind: Sum}},
		// One int64 key per dimension, one measure, plus encoding overhead.
		RowBytes: units.DataSize(8*dims + 16),
	}
	for d := 0; d < dims; d++ {
		finest := 512 * (d + 1)
		if want := math.Pow(factor, float64(levels-2)); float64(finest) < want {
			// Guarantee every named level keeps a distinct cardinality
			// even for very deep hierarchies.
			finest = int(want) * (d + 1)
		}
		ls := make([]Level, 0, levels-1)
		card := finest
		for k := 0; k < levels-1; k++ {
			ls = append(ls, Level{Name: fmt.Sprintf("d%dl%d", d, k), Cardinality: card})
			card /= factor
			if card < 1 {
				card = 1
			}
		}
		s.Dimensions = append(s.Dimensions, NewDimension(fmt.Sprintf("dim%d", d), ls...))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Sales constructs the paper's supply-chain sales schema at the given
// fact-table scale.
//
// The running example stores 11 calendar years (2000–2010) of sales. The
// hierarchy cardinalities (4018 days, 132 months, 11 years; 800 departments,
// 80 regions, 10 countries) match that setting; only the physical row count
// (and thus dataset size) varies with scale.
func Sales() *Schema {
	return &Schema{
		Name: "sales",
		Dimensions: []Dimension{
			NewDimension("time",
				Level{Name: "day", Cardinality: 4018},
				Level{Name: "month", Cardinality: 132},
				Level{Name: "year", Cardinality: 11},
			),
			NewDimension("geography",
				Level{Name: "department", Cardinality: 800},
				Level{Name: "region", Cardinality: 80},
				Level{Name: "country", Cardinality: 10},
			),
		},
		Measures: []Measure{{Name: "profit", Kind: Sum}},
		// day(4) + department(4) + profit(8) + row overhead ≈ 50 bytes when
		// serialized with dimension attributes denormalized as in Table 1.
		RowBytes: 50,
	}
}
