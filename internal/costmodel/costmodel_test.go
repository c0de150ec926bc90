package costmodel

import (
	"strings"
	"testing"
	"time"

	"vmcloud/internal/cluster"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/simtime"
	"vmcloud/internal/units"
)

func awsTwoSmalls(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(pricing.AWS2012(), "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Paper Example 1: Ct = (10−1) GB × $0.12 = $1.08.
func TestTransferCostExample1(t *testing.T) {
	got := TransferCost(pricing.AWS2012(), 10*units.GB)
	if want := money.FromDollars(1.08); got != want {
		t.Errorf("Ct = %v, want %v", got, want)
	}
}

// Paper Example 3: 512 GB for 7 months at $0.14 plus 2560 GB for 5 months
// at $0.125 = $2101.76. (The paper prints $2131.76 — an arithmetic typo;
// its own formula and numbers give 501.76 + 1600 = 2101.76.)
func TestStorageCostExample3(t *testing.T) {
	tl := simtime.Timeline{
		Initial: 512 * units.GB,
		Horizon: 12,
		Events:  []simtime.Event{{At: 7, Delta: 2048 * units.GB}},
	}
	got, err := StorageCost(pricing.AWS2012(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if want := money.FromDollars(2101.76); got != want {
		t.Errorf("Cs = %v, want %v", got, want)
	}
}

// Paper Example 9: (500+50) GB × 12 months × $0.14 = $924.
func TestStorageCostExample9(t *testing.T) {
	tl := simtime.Timeline{Initial: 550 * units.GB, Horizon: 12}
	got, err := StorageCost(pricing.AWS2012(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if want := money.FromDollars(924); got != want {
		t.Errorf("Cs = %v, want %v", got, want)
	}
}

func TestStorageCostPropagatesTimelineErrors(t *testing.T) {
	tl := simtime.Timeline{Initial: -units.GB, Horizon: 1}
	if _, err := StorageCost(pricing.AWS2012(), tl); err == nil {
		t.Error("bad timeline accepted")
	}
}

// The running example without views: Example 2 (Cc = $12), a year of
// storage, one 10 GB result per month.
func TestPlanBillWithoutViews(t *testing.T) {
	p := Plan{
		Cluster:           awsTwoSmalls(t),
		Months:            1,
		DatasetSize:       500 * units.GB,
		MonthlyProcessing: 50 * time.Hour,
		MonthlyEgress:     10 * units.GB,
	}
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	if b.Compute.Processing != money.FromDollars(12) {
		t.Errorf("CprocessingQ = %v, want $12", b.Compute.Processing)
	}
	if b.Compute.Maintenance != 0 || b.Compute.Materialization != 0 {
		t.Errorf("view costs nonzero without views: %+v", b.Compute)
	}
	if b.Storage != money.FromDollars(70) { // 500 × 0.14
		t.Errorf("Cs = %v, want $70", b.Storage)
	}
	if b.Transfer != money.FromDollars(1.08) {
		t.Errorf("Ct = %v, want $1.08", b.Transfer)
	}
	if b.Total() != money.FromDollars(83.08) {
		t.Errorf("C = %v, want $83.08", b.Total())
	}
}

// The running example with views: Examples 4 (mat $0.24), 6 (proc $9.6),
// 8 (maint $1.2), 9-style storage at one month.
func TestPlanBillWithViews(t *testing.T) {
	base := Plan{
		Cluster:           awsTwoSmalls(t),
		Months:            1,
		DatasetSize:       500 * units.GB,
		MonthlyProcessing: 50 * time.Hour,
		MonthlyEgress:     10 * units.GB,
	}
	p := base.WithViews(50*units.GB, 40*time.Hour, 5*time.Hour, 1*time.Hour)
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	if b.Compute.Processing != money.FromDollars(9.6) {
		t.Errorf("CprocessingQ = %v, want $9.60", b.Compute.Processing)
	}
	if b.Compute.Maintenance != money.FromDollars(1.2) {
		t.Errorf("CmaintenanceV = %v, want $1.20", b.Compute.Maintenance)
	}
	if b.Compute.Materialization != money.FromDollars(0.24) {
		t.Errorf("CmaterializationV = %v, want $0.24", b.Compute.Materialization)
	}
	if got, want := b.Compute.Total(), money.FromDollars(11.04); got != want {
		t.Errorf("Cc = %v, want %v (Formula 6)", got, want)
	}
	if b.Storage != money.FromDollars(77) { // 550 × 0.14
		t.Errorf("Cs = %v, want $77", b.Storage)
	}
	// Formula 1.
	want := money.Sum(b.Compute.Total(), b.Storage, b.Transfer)
	if b.Total() != want {
		t.Errorf("Total = %v, want %v", b.Total(), want)
	}
}

func TestMaterializationBilledOnce(t *testing.T) {
	p := Plan{
		Cluster:         awsTwoSmalls(t),
		Months:          12,
		DatasetSize:     units.GB,
		Materialization: time.Hour,
	}
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	// 1 h × $0.12 × 2 instances, NOT ×12 months.
	if b.Compute.Materialization != money.FromDollars(0.24) {
		t.Errorf("materialization = %v, want $0.24 once", b.Compute.Materialization)
	}
}

func TestMonthlyQuantitiesScaleWithMonths(t *testing.T) {
	p := Plan{
		Cluster:           awsTwoSmalls(t),
		Months:            3,
		DatasetSize:       100 * units.GB,
		MonthlyProcessing: 10 * time.Hour,
		MonthlyEgress:     5 * units.GB,
	}
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	if b.Compute.Processing != money.FromDollars(2.4).MulInt(3) {
		t.Errorf("processing = %v, want 3 × $2.40", b.Compute.Processing)
	}
	if b.Storage != money.FromDollars(0.14).MulFloat(100).MulInt(3) {
		t.Errorf("storage = %v", b.Storage)
	}
	if b.Transfer != money.FromDollars(0.12).MulFloat(4).MulInt(3) {
		t.Errorf("transfer = %v", b.Transfer)
	}
}

func TestPlanValidate(t *testing.T) {
	good := Plan{Cluster: awsTwoSmalls(t), Months: 1, DatasetSize: units.GB}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Plan{
		{Months: 1},                         // no cluster
		{Cluster: good.Cluster, Months: -1}, // negative period
		{Cluster: good.Cluster, Months: 1, DatasetSize: -units.GB},
		{Cluster: good.Cluster, Months: 1, MonthlyProcessing: -time.Hour},
		{Cluster: good.Cluster, Months: 1, MonthlyEgress: -units.GB},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
		if _, err := p.Bill(); err == nil {
			t.Errorf("case %d: invalid plan billed", i)
		}
	}
}

func TestZeroMonthsBillsOnlyMaterialization(t *testing.T) {
	p := Plan{
		Cluster:           awsTwoSmalls(t),
		Months:            0,
		DatasetSize:       100 * units.GB,
		MonthlyProcessing: 10 * time.Hour,
		Materialization:   2 * time.Hour,
	}
	b, err := p.Bill()
	if err != nil {
		t.Fatal(err)
	}
	if b.Compute.Processing != 0 || b.Storage != 0 || b.Transfer != 0 {
		t.Errorf("zero-month plan billed recurring costs: %v", b)
	}
	if b.Compute.Materialization != money.FromDollars(0.48) {
		t.Errorf("materialization = %v", b.Compute.Materialization)
	}
}

func TestBillString(t *testing.T) {
	b := Bill{
		Compute:  Breakdown{Processing: money.FromDollars(9.6), Maintenance: money.FromDollars(1.2), Materialization: money.FromDollars(0.24)},
		Storage:  money.FromDollars(77),
		Transfer: money.FromDollars(1.08),
	}
	s := b.String()
	for _, frag := range []string{"$9.60", "$1.20", "$0.24", "$77.00", "$1.08", "$89.12"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Bill.String() = %q missing %q", s, frag)
		}
	}
}
