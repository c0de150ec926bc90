package experiments

import (
	"fmt"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/optimizer"
	"vmcloud/internal/report"
)

// MV1Row is one line of the Table 6 / Figure 5(a) reproduction.
type MV1Row struct {
	Queries     int
	Budget      money.Money
	TimeWithout time.Duration
	TimeWith    time.Duration
	BillWithout costmodel.Bill
	BillWith    costmodel.Bill
	// IPRate is Table 6's improved-performance rate:
	// (Twithout − Twith) / Twithout.
	IPRate   float64
	Views    []string
	Feasible bool
}

// RunMV1 reproduces scenario MV1 (budget limit) for the three workload
// sizes in the one-shot regime.
func RunMV1() ([]MV1Row, error) {
	var rows []MV1Row
	for _, n := range WorkloadSizes {
		s, err := NewSetup(n, OneShot())
		if err != nil {
			return nil, err
		}
		baseT, baseBill, err := s.Baseline()
		if err != nil {
			return nil, err
		}
		budget, err := s.MV1Budget()
		if err != nil {
			return nil, err
		}
		sel, err := s.sess.SolveMV1(budget)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MV1Row{
			Queries:     n,
			Budget:      budget,
			TimeWithout: baseT,
			TimeWith:    sel.Time,
			BillWithout: baseBill,
			BillWith:    sel.Bill,
			IPRate:      rate(float64(baseT), float64(sel.Time)),
			Views:       s.ViewNames(sel.Points),
			Feasible:    sel.Feasible,
		})
	}
	return rows, nil
}

// MV2Row is one line of the Table 7 / Figure 5(b) reproduction.
type MV2Row struct {
	Queries     int
	Limit       time.Duration
	CostWithout money.Money
	CostWith    money.Money
	TimeWithout time.Duration
	TimeWith    time.Duration
	// ICRate is Table 7's improved-cost rate:
	// (Cwithout − Cwith) / Cwithout.
	ICRate   float64
	Views    []string
	Feasible bool
}

// RunMV2 reproduces scenario MV2 (response-time limit) for the three
// workload sizes in the recurring regime.
func RunMV2() ([]MV2Row, error) {
	var rows []MV2Row
	for _, n := range WorkloadSizes {
		s, err := NewSetup(n, Recurring())
		if err != nil {
			return nil, err
		}
		baseT, baseBill, err := s.Baseline()
		if err != nil {
			return nil, err
		}
		limit, err := s.MV2Limit()
		if err != nil {
			return nil, err
		}
		sel, err := s.sess.SolveMV2(limit)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MV2Row{
			Queries:     n,
			Limit:       limit,
			CostWithout: baseBill.Total(),
			CostWith:    sel.Bill.Total(),
			TimeWithout: baseT,
			TimeWith:    sel.Time,
			ICRate:      rate(baseBill.Total().Dollars(), sel.Bill.Total().Dollars()),
			Views:       s.ViewNames(sel.Points),
			Feasible:    sel.Feasible,
		})
	}
	return rows, nil
}

// MV3Row is one line of the Table 8 / Figure 5(c,d) reproduction.
type MV3Row struct {
	Queries    int
	Alpha      float64
	ObjWithout float64
	ObjWith    float64
	// Rate is Table 8's improved-tradeoff rate.
	Rate  float64
	Views []string
}

// RunMV3 reproduces scenario MV3 (tradeoff) at the given α in the
// recurring regime. The paper reports α = 0.3 (Figure 5(c)) and α = 0.7
// in Table 8 (its Figure 5(d) caption says α = 0.65; run both).
func RunMV3(alpha float64) ([]MV3Row, error) {
	var rows []MV3Row
	for _, n := range WorkloadSizes {
		s, err := NewSetup(n, Recurring())
		if err != nil {
			return nil, err
		}
		baseT, baseBill, err := s.Baseline()
		if err != nil {
			return nil, err
		}
		sc, err := optimizer.Tradeoff(alpha, optimizer.RawTradeoff, baseT, baseBill)
		if err != nil {
			return nil, err
		}
		sel, err := s.sess.Solve(sc)
		if err != nil {
			return nil, err
		}
		objWithout := sc.Score(optimizer.Outcome{Time: baseT, Cost: baseBill.Total()})
		objWith := sc.Score(optimizer.Outcome{Time: sel.Time, Cost: sel.Bill.Total()})
		rows = append(rows, MV3Row{
			Queries:    n,
			Alpha:      alpha,
			ObjWithout: objWithout,
			ObjWith:    objWith,
			Rate:       rate(objWithout, objWith),
			Views:      s.ViewNames(sel.Points),
		})
	}
	return rows, nil
}

func rate(without, with float64) float64 {
	if without <= 0 {
		return 0
	}
	return (without - with) / without
}

// Table6 renders the MV1 rows as the paper's Table 6 analogue.
func Table6(rows []MV1Row) *report.Table {
	t := report.NewTable("Table 6 — MV1: improved performance under the same budget",
		"queries", "budget", "T without", "T with", "IP rate", "views")
	for _, r := range rows {
		t.AddRow(r.Queries, r.Budget, fmtH(r.TimeWithout), fmtH(r.TimeWith),
			report.Percent(r.IPRate), len(r.Views))
	}
	return t
}

// Table7 renders the MV2 rows as the paper's Table 7 analogue.
func Table7(rows []MV2Row) *report.Table {
	t := report.NewTable("Table 7 — MV2: improved cost under the same time limit",
		"queries", "time limit", "C without", "C with", "IC rate", "views")
	for _, r := range rows {
		t.AddRow(r.Queries, fmtH(r.Limit), r.CostWithout, r.CostWith,
			report.Percent(r.ICRate), len(r.Views))
	}
	return t
}

// Table8 renders MV3 rows for two alphas as the paper's Table 8 analogue.
func Table8(a, b []MV3Row) (*report.Table, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("experiments: mismatched MV3 row sets (%d vs %d)", len(a), len(b))
	}
	var t *report.Table
	if len(a) > 0 {
		t = report.NewTable("Table 8 — MV3: improved tradeoff rates",
			"queries",
			fmt.Sprintf("rate (α=%.2g)", a[0].Alpha),
			fmt.Sprintf("rate (α=%.2g)", b[0].Alpha))
	} else {
		t = report.NewTable("Table 8 — MV3: improved tradeoff rates", "queries")
	}
	for i := range a {
		if a[i].Queries != b[i].Queries {
			return nil, fmt.Errorf("experiments: row %d mixes %d- and %d-query workloads", i, a[i].Queries, b[i].Queries)
		}
		t.AddRow(a[i].Queries, report.Percent(a[i].Rate), report.Percent(b[i].Rate))
	}
	return t, nil
}

// Figure5a renders the MV1 comparison as a bar chart (hours).
func Figure5a(rows []MV1Row) *report.BarChart {
	c := report.NewBarChart("Figure 5(a) — MV1 response time under budget (hours)", "h")
	for _, r := range rows {
		c.Add(fmt.Sprintf("%dq without", r.Queries), r.TimeWithout.Hours())
		c.Add(fmt.Sprintf("%dq with   ", r.Queries), r.TimeWith.Hours())
	}
	return c
}

// Figure5b renders the MV2 comparison as a bar chart (dollars).
func Figure5b(rows []MV2Row) *report.BarChart {
	c := report.NewBarChart("Figure 5(b) — MV2 total cost under time limit ($)", "$")
	for _, r := range rows {
		c.Add(fmt.Sprintf("%dq without", r.Queries), r.CostWithout.Dollars())
		c.Add(fmt.Sprintf("%dq with   ", r.Queries), r.CostWith.Dollars())
	}
	return c
}

// Figure5cd renders an MV3 comparison as a bar chart (objective value).
func Figure5cd(rows []MV3Row, label string) *report.BarChart {
	title := fmt.Sprintf("Figure 5(%s) — MV3 tradeoff objective", label)
	if len(rows) > 0 {
		title = fmt.Sprintf("Figure 5(%s) — MV3 tradeoff objective (α=%.2g)", label, rows[0].Alpha)
	}
	c := report.NewBarChart(title, "")
	for _, r := range rows {
		c.Add(fmt.Sprintf("%dq without", r.Queries), r.ObjWithout)
		c.Add(fmt.Sprintf("%dq with   ", r.Queries), r.ObjWith)
	}
	return c
}

func fmtH(d time.Duration) string { return fmt.Sprintf("%.3fh", d.Hours()) }
