// Package datagen synthesizes the paper's supply-chain sales dataset: fact
// rows with a calendar date (2000–2010), a geographic department and a
// profit measure, plus the hierarchy rollup maps (day→month→year and
// department→region→country) and display labels.
//
// The paper's dataset is private; this generator reproduces its schema
// (Table 1), its hierarchy cardinalities and its date range at any physical
// scale, deterministically from a seed.
package datagen

import (
	"fmt"
	"math/rand"
	"time"

	"vmcloud/internal/lattice"
	"vmcloud/internal/schema"
	"vmcloud/internal/storage"
)

// Config controls generation.
type Config struct {
	// Rows is the number of fact rows to generate.
	Rows int
	// Seed makes generation deterministic.
	Seed int64
	// HotDeptSkew is the Zipf exponent applied to department popularity;
	// values > 1 concentrate sales in a few departments. Zero selects the
	// default of 1.2.
	HotDeptSkew float64
}

// countries and the paper's named examples (France→Auvergne→Puy-de-Dôme,
// Italy→Campanie→Naples) head the label lists.
var countries = []string{
	"France", "Italy", "Germany", "Spain", "Portugal",
	"Belgium", "Switzerland", "Austria", "Netherlands", "Poland",
}

// GenerateSales builds a sales dataset per the config.
func GenerateSales(cfg Config) (*storage.Dataset, error) {
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("datagen: non-positive row count %d", cfg.Rows)
	}
	if cfg.HotDeptSkew == 0 {
		cfg.HotDeptSkew = 1.2
	}
	if cfg.HotDeptSkew <= 1 {
		return nil, fmt.Errorf("datagen: HotDeptSkew must exceed 1, got %g", cfg.HotDeptSkew)
	}
	s := schema.Sales()
	timeDim, _, err := s.Dimension("time")
	if err != nil {
		return nil, err
	}
	geoDim, _, err := s.Dimension("geography")
	if err != nil {
		return nil, err
	}
	days := timeDim.Levels[0].Cardinality
	months := timeDim.Levels[1].Cardinality
	years := timeDim.Levels[2].Cardinality
	depts := geoDim.Levels[0].Cardinality
	regions := geoDim.Levels[1].Cardinality
	nCountries := geoDim.Levels[2].Cardinality

	ds := &storage.Dataset{
		Schema: s,
		Maps:   map[string][]int32{},
		Labels: map[string][]string{},
	}

	// Calendar: exact Gregorian mapping for 2000-01-01 .. 2010-12-31.
	dayToMonth := make([]int32, 0, days)
	dayLabels := make([]string, 0, days)
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	for d := start; d.Year() <= 2010; d = d.AddDate(0, 0, 1) {
		dayToMonth = append(dayToMonth, int32((d.Year()-2000)*12+int(d.Month())-1))
		dayLabels = append(dayLabels, d.Format("2006-01-02"))
	}
	if len(dayToMonth) != days {
		return nil, fmt.Errorf("datagen: calendar produced %d days, schema expects %d", len(dayToMonth), days)
	}
	monthToYear := make([]int32, months)
	monthLabels := make([]string, months)
	for m := 0; m < months; m++ {
		monthToYear[m] = int32(m / 12)
		monthLabels[m] = fmt.Sprintf("%04d-%02d", 2000+m/12, m%12+1)
	}
	yearLabels := make([]string, years)
	for y := 0; y < years; y++ {
		yearLabels[y] = fmt.Sprintf("%04d", 2000+y)
	}

	// Geography: dept d belongs to region d/10, region r to country r/8.
	deptToRegion := make([]int32, depts)
	deptLabels := make([]string, depts)
	for d := 0; d < depts; d++ {
		deptToRegion[d] = int32(d / (depts / regions))
	}
	regionToCountry := make([]int32, regions)
	regionLabels := make([]string, regions)
	for r := 0; r < regions; r++ {
		regionToCountry[r] = int32(r / (regions / nCountries))
		regionLabels[r] = fmt.Sprintf("%s-R%d", countryCode(int(regionToCountry[r])), r%(regions/nCountries)+1)
	}
	regionLabels[0] = "Auvergne"
	campanie := int(regions / nCountries) // first region of Italy (country 1)
	regionLabels[campanie] = "Campanie"
	for d := 0; d < depts; d++ {
		deptLabels[d] = fmt.Sprintf("%s-D%d", regionLabels[deptToRegion[d]], d%(depts/regions)+1)
	}
	deptLabels[0] = "Puy-de-Dôme"
	deptLabels[campanie*(depts/regions)] = "Naples"

	ds.Maps[schema.MapName("day", "month")] = dayToMonth
	ds.Maps[schema.MapName("month", "year")] = monthToYear
	ds.Maps[schema.MapName("department", "region")] = deptToRegion
	ds.Maps[schema.MapName("region", "country")] = regionToCountry
	ds.Labels["day"] = dayLabels
	ds.Labels["month"] = monthLabels
	ds.Labels["year"] = yearLabels
	ds.Labels["department"] = deptLabels
	ds.Labels["region"] = regionLabels
	ds.Labels["country"] = countries[:nCountries]

	// Facts: uniform dates with a mild seasonal bump in December, Zipfian
	// department popularity, log-ish positive profits in cents.
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.HotDeptSkew, 1, uint64(depts-1))
	facts := storage.NewTable("facts", lattice.Point{0, 0}, 1, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		day := int32(rng.Intn(days))
		if rng.Float64() < 0.15 { // seasonal bump: re-draw into December
			m := dayToMonth[day]
			if m%12 != 11 {
				day = int32(rng.Intn(days))
			}
		}
		dept := int32(zipf.Uint64())
		// Profit between $10.00 and ~$1000.00, right-skewed.
		profit := int64(1000 + rng.Intn(9000) + rng.Intn(9000)*rng.Intn(11))
		if err := facts.Append([]int32{day, dept}, []int64{profit}); err != nil {
			return nil, err
		}
	}
	ds.Facts = facts
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("datagen: generated dataset invalid: %w", err)
	}
	return ds, nil
}

// GenerateInsertBatch builds a batch of fresh fact rows at the dataset's
// base grain — the update stream that drives incremental view maintenance
// (views.ApplyInsertBatch). Deterministic from the seed.
func GenerateInsertBatch(ds *storage.Dataset, rows int, seed int64) (*storage.Table, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("datagen: non-positive batch size %d", rows)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	days := ds.Schema.Dimensions[0].Levels[0].Cardinality
	depts := ds.Schema.Dimensions[1].Levels[0].Cardinality
	rng := rand.New(rand.NewSource(seed))
	batch := storage.NewTable("batch", lattice.Point{0, 0}, len(ds.Schema.Measures), rows)
	keys := make([]int32, 2)
	vals := make([]int64, len(ds.Schema.Measures))
	for i := 0; i < rows; i++ {
		keys[0] = int32(rng.Intn(days))
		keys[1] = int32(rng.Intn(depts))
		for m := range vals {
			vals[m] = int64(rng.Intn(9000) + 1000)
		}
		if err := batch.Append(keys, vals); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

func countryCode(c int) string {
	codes := []string{"FR", "IT", "DE", "ES", "PT", "BE", "CH", "AT", "NL", "PL"}
	if c < len(codes) {
		return codes[c]
	}
	return fmt.Sprintf("C%d", c)
}
