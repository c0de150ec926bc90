package datagen

import (
	"testing"

	"vmcloud/internal/schema"
)

func TestGenerateSalesValid(t *testing.T) {
	ds, err := GenerateSales(Config{Rows: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Facts.Rows() != 5000 {
		t.Errorf("rows = %d, want 5000", ds.Facts.Rows())
	}
}

func TestGenerateSalesDeterministic(t *testing.T) {
	a, err := GenerateSales(Config{Rows: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSales(Config{Rows: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 1000; r++ {
		if a.Facts.Keys[0][r] != b.Facts.Keys[0][r] ||
			a.Facts.Keys[1][r] != b.Facts.Keys[1][r] ||
			a.Facts.Measures[0][r] != b.Facts.Measures[0][r] {
			t.Fatalf("row %d differs between identically-seeded runs", r)
		}
	}
	c, err := GenerateSales(Config{Rows: 1000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < 1000; r++ {
		if a.Facts.Keys[0][r] != c.Facts.Keys[0][r] || a.Facts.Measures[0][r] != c.Facts.Measures[0][r] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestCalendarExact(t *testing.T) {
	ds, err := GenerateSales(Config{Rows: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2m := ds.Maps[schema.MapName("day", "month")]
	if len(d2m) != 4018 {
		t.Fatalf("calendar days = %d, want 4018 (2000–2010 incl. 3 leap years)", len(d2m))
	}
	// 2000-01-01 is day 0, month 0.
	if d2m[0] != 0 {
		t.Errorf("day 0 month = %d, want 0", d2m[0])
	}
	// 2000-02-29 exists (leap year): day index 31+29-1 = 59 is still Feb.
	if d2m[59] != 1 {
		t.Errorf("2000-02-29 mapped to month %d, want 1", d2m[59])
	}
	// 2000-03-01 is day 60.
	if d2m[60] != 2 {
		t.Errorf("2000-03-01 mapped to month %d, want 2", d2m[60])
	}
	// Last day is 2010-12-31 → month 131.
	if d2m[len(d2m)-1] != 131 {
		t.Errorf("last day month = %d, want 131", d2m[len(d2m)-1])
	}
	if ds.Labels["day"][59] != "2000-02-29" {
		t.Errorf("day 59 label = %q, want 2000-02-29", ds.Labels["day"][59])
	}
	m2y := ds.Maps[schema.MapName("month", "year")]
	if m2y[11] != 0 || m2y[12] != 1 || m2y[131] != 10 {
		t.Errorf("month→year map wrong: %d %d %d", m2y[11], m2y[12], m2y[131])
	}
}

func TestGeographyHierarchy(t *testing.T) {
	ds, err := GenerateSales(Config{Rows: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2r := ds.Maps[schema.MapName("department", "region")]
	r2c := ds.Maps[schema.MapName("region", "country")]
	if len(d2r) != 800 || len(r2c) != 80 {
		t.Fatalf("map sizes = %d, %d; want 800, 80", len(d2r), len(r2c))
	}
	// Paper's example: Puy-de-Dôme ∈ Auvergne ∈ France.
	if ds.Labels["department"][0] != "Puy-de-Dôme" {
		t.Errorf("dept 0 = %q", ds.Labels["department"][0])
	}
	if ds.Labels["region"][d2r[0]] != "Auvergne" {
		t.Errorf("region of dept 0 = %q", ds.Labels["region"][d2r[0]])
	}
	if ds.Labels["country"][r2c[d2r[0]]] != "France" {
		t.Errorf("country of dept 0 = %q", ds.Labels["country"][r2c[d2r[0]]])
	}
	// Naples ∈ Campanie ∈ Italy.
	naples := -1
	for i, l := range ds.Labels["department"] {
		if l == "Naples" {
			naples = i
			break
		}
	}
	if naples < 0 {
		t.Fatal("Naples not found")
	}
	if ds.Labels["region"][d2r[naples]] != "Campanie" {
		t.Errorf("region of Naples = %q", ds.Labels["region"][d2r[naples]])
	}
	if ds.Labels["country"][r2c[d2r[naples]]] != "Italy" {
		t.Errorf("country of Naples = %q", ds.Labels["country"][r2c[d2r[naples]]])
	}
}

func TestSkewProducesHotDepartments(t *testing.T) {
	ds, err := GenerateSales(Config{Rows: 50_000, Seed: 3, HotDeptSkew: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int32]int{}
	for _, d := range ds.Facts.Keys[1] {
		counts[d]++
	}
	// The hottest department should take well above the uniform 1/800 share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 50_000/800*5 {
		t.Errorf("hottest department has %d rows; expected strong skew", max)
	}
}

func TestProfitsPositive(t *testing.T) {
	ds, err := GenerateSales(Config{Rows: 10_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ds.Facts.Measures[0] {
		if p <= 0 {
			t.Fatalf("row %d profit = %d, want > 0", i, p)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := GenerateSales(Config{Rows: 0, Seed: 1}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := GenerateSales(Config{Rows: 10, Seed: 1, HotDeptSkew: 0.5}); err == nil {
		t.Error("skew ≤ 1 accepted")
	}
}
