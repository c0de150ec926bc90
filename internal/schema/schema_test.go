package schema

import (
	"strings"
	"testing"
)

func TestSalesValidates(t *testing.T) {
	s := Sales()
	if err := s.Validate(); err != nil {
		t.Fatalf("Sales schema invalid: %v", err)
	}
}

func TestSalesShape(t *testing.T) {
	s := Sales()
	if len(s.Dimensions) != 2 {
		t.Fatalf("dimensions = %d, want 2", len(s.Dimensions))
	}
	timeDim, idx, err := s.Dimension("time")
	if err != nil || idx != 0 {
		t.Fatalf("Dimension(time): %v, idx %d", err, idx)
	}
	if timeDim.NumLevels() != 4 {
		t.Errorf("time levels = %d, want 4 (day, month, year, all)", timeDim.NumLevels())
	}
	if timeDim.Levels[0].Name != "day" {
		t.Errorf("finest time level = %q, want day", timeDim.Levels[0].Name)
	}
	if timeDim.Levels[3].Name != AllLevel || timeDim.Levels[3].Cardinality != 1 {
		t.Errorf("top level = %+v, want ALL/1", timeDim.Levels[3])
	}
	geo, _, err := s.Dimension("geography")
	if err != nil {
		t.Fatal(err)
	}
	li, err := geo.LevelIndex("country")
	if err != nil || li != 2 {
		t.Errorf("LevelIndex(country) = %d, %v; want 2", li, err)
	}
	if _, err := geo.LevelIndex("continent"); err == nil {
		t.Error("unknown level accepted")
	}
	if _, _, err := s.Dimension("product"); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Schema)
		want string
	}{
		{"unnamed", func(s *Schema) { s.Name = "" }, "unnamed"},
		{"no dims", func(s *Schema) { s.Dimensions = nil }, "no dimensions"},
		{"no measures", func(s *Schema) { s.Measures = nil }, "no measures"},
		{"bad rowbytes", func(s *Schema) { s.RowBytes = 0 }, "RowBytes"},
		{"zero cardinality", func(s *Schema) { s.Dimensions[0].Levels[0].Cardinality = 0 }, "cardinality"},
		{"increasing cardinality", func(s *Schema) { s.Dimensions[0].Levels[1].Cardinality = 10_000 }, "exceeds"},
		{"dup level", func(s *Schema) { s.Dimensions[1].Levels[0].Name = "day" }, "duplicate"},
		{"missing all", func(s *Schema) {
			s.Dimensions[0].Levels = s.Dimensions[0].Levels[:3]
		}, "ALL"},
		{"only all", func(s *Schema) {
			s.Dimensions[0].Levels = s.Dimensions[0].Levels[3:]
		}, "no levels"},
	}
	for _, c := range cases {
		s := Sales()
		c.mut(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: invalid schema accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMeasureKindString(t *testing.T) {
	for k, want := range map[MeasureKind]string{Sum: "sum", Count: "count", MinAgg: "min", MaxAgg: "max"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if MeasureKind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestMapName(t *testing.T) {
	if MapName("day", "month") != "day->month" {
		t.Errorf("MapName = %q", MapName("day", "month"))
	}
}

func TestNewDimensionAppendsAll(t *testing.T) {
	d := NewDimension("x", Level{Name: "leaf", Cardinality: 5})
	if len(d.Levels) != 2 || d.Levels[1].Name != AllLevel {
		t.Errorf("levels = %+v", d.Levels)
	}
}

func TestSynthetic(t *testing.T) {
	s, err := Synthetic(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Dimensions); got != 4 {
		t.Fatalf("dims = %d, want 4", got)
	}
	for _, d := range s.Dimensions {
		if got := d.NumLevels(); got != 4 {
			t.Fatalf("dimension %s has %d levels, want 4", d.Name, got)
		}
	}
	for _, bad := range [][2]int{{0, 4}, {4, 1}, {11, 4}, {4, 13}} {
		if _, err := Synthetic(bad[0], bad[1]); err == nil {
			t.Errorf("Synthetic(%d, %d) accepted", bad[0], bad[1])
		}
	}
	// The deepest allowed hierarchy must stay within integer range.
	deep, err := Synthetic(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if c := deep.Dimensions[0].Levels[0].Cardinality; c < 1 {
		t.Fatalf("deep hierarchy finest cardinality %d overflowed", c)
	}
}
