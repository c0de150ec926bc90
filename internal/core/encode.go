package core

import (
	"slices"
	"strconv"

	"vmcloud/internal/jsonenc"
	"vmcloud/internal/lattice"
)

// The wire encoders. Each AppendJSON writes exactly the bytes
// encoding/json would write for the struct it is declared on — field
// order, omitempty and null-for-nil included — and each MarshalJSON
// delegates to it, so the struct tags above are only the decode
// contract and there is one encoder however a value reaches the wire.
// TestAppendJSONMatchesReflection holds the two together.

// AppendJSON appends the bill's wire form to dst.
//
//mvlint:hotpath
func (b BillJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"total":`...)
	dst = b.Total.AppendJSON(dst)
	dst = append(dst, `,"compute":`...)
	dst = b.Compute.AppendJSON(dst)
	dst = append(dst, `,"processing":`...)
	dst = b.Processing.AppendJSON(dst)
	dst = append(dst, `,"maintenance":`...)
	dst = b.Maintenance.AppendJSON(dst)
	dst = append(dst, `,"materialization":`...)
	dst = b.Materialization.AppendJSON(dst)
	dst = append(dst, `,"storage":`...)
	dst = b.Storage.AppendJSON(dst)
	dst = append(dst, `,"transfer":`...)
	dst = b.Transfer.AppendJSON(dst)
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (b BillJSON) MarshalJSON() ([]byte, error) { return b.AppendJSON(nil) }

// AppendJSON appends the baseline's wire form to dst.
//
//mvlint:hotpath
func (b BaselineJSON) AppendJSON(dst []byte) ([]byte, error) {
	return appendBaseline(dst, b.Time, b.Hours, &b.Bill)
}

// appendBaseline is the one writer of the baseline shape, for the wire
// struct and for a solved value, whose time text it is handed.
//
//mvlint:hotpath
func appendBaseline(dst []byte, time string, hours float64, bill *BillJSON) ([]byte, error) {
	dst = append(dst, `{"time":`...)
	dst = jsonenc.AppendString(dst, time)
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, hours)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"bill":`...)
	dst, err = bill.AppendJSON(dst)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (b BaselineJSON) MarshalJSON() ([]byte, error) { return b.AppendJSON(nil) }

// AppendJSON appends the improvement's wire form to dst.
//
//mvlint:hotpath
func (g ImprovementJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"time":`...)
	dst, err := jsonenc.AppendFloat(dst, g.Time)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	if dst, err = jsonenc.AppendFloat(dst, g.Cost); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (g ImprovementJSON) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil) }

// AppendJSON appends the recommendation's wire form to dst.
//
//mvlint:hotpath
func (j RecommendationJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst, _, err := appendRecommendation(dst, &j, j.rec, nil)
	return dst, err
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (j RecommendationJSON) MarshalJSON() ([]byte, error) { return j.AppendJSON(nil) }

// AnswerSpan marks where, in the buffer AppendWire wrote it to, a
// recommendation keeps the bytes its answer alone decides: every member
// but the scenario, feasibility and strategy, and every line of the
// report but the first.
type AnswerSpan struct {
	// members is the answer's members, up to the report's opening quote;
	// report is the report after its first line, with what closes the
	// recommendation.
	members, report [2]int
}

// AppendWire appends r's wire form to dst — the bytes of
// json.Marshal(r.JSON()) — reading every member from r itself, so that
// no wire struct is built and no duration, point or view name copied.
// With same, the mark of a recommendation earlier in dst whose answer
// equals r's (SameAnswer), the answer's bytes are copied from there,
// not written again. It returns the mark of what it wrote.
//
//mvlint:hotpath
func (r *Recommendation) AppendWire(dst []byte, same *AnswerSpan) ([]byte, AnswerSpan, error) {
	return appendRecommendation(dst, nil, r, same)
}

// SameAnswer reports whether r and o write the same answer bytes (see
// AnswerSpan): the same points in the same order, time, bill, degraded
// flag, view names and baseline.
func (r *Recommendation) SameAnswer(o *Recommendation) bool {
	a, b := &r.Selection, &o.Selection
	return a.Time == b.Time && a.Bill == b.Bill && a.Degraded == b.Degraded &&
		r.BaselineTime == o.BaselineTime && r.BaselineBill == o.BaselineBill &&
		slices.EqualFunc(a.Points, b.Points, func(p, q lattice.Point) bool {
			return (p == nil) == (q == nil) && slices.Equal(p, q)
		}) &&
		slices.Equal(r.ViewNames, o.ViewNames)
}

// appendRecommendation is the one writer of the recommendation shape.
// It reads every member from the solved value r when r is set — the
// served routes (LazyJSON, AppendWire), which write a duration's text
// from the stack (Duration.String allocates nothing when its result
// does not escape) and borrow the points and view names — and from the
// wire struct j otherwise. With same set, r's answer is copied from the
// earlier recommendation the span marks.
//
//mvlint:hotpath
func appendRecommendation(dst []byte, j *RecommendationJSON, r *Recommendation, same *AnswerSpan) ([]byte, AnswerSpan, error) {
	var span AnswerSpan
	dst = append(dst, `{"scenario":`...)
	if r != nil {
		dst = jsonenc.AppendString(dst, r.Scenario)
		dst = append(dst, `,"feasible":`...)
		dst = strconv.AppendBool(dst, r.Selection.Feasible)
		dst = append(dst, `,"strategy":`...)
		dst = jsonenc.AppendString(dst, r.Selection.Strategy)
	} else {
		dst = jsonenc.AppendString(dst, j.Scenario)
		dst = append(dst, `,"feasible":`...)
		dst = strconv.AppendBool(dst, j.Feasible)
		dst = append(dst, `,"strategy":`...)
		dst = jsonenc.AppendString(dst, j.Strategy)
	}
	if same != nil {
		dst = append(dst, dst[same.members[0]:same.members[1]]...)
		w := jsonenc.StringText(dst)
		r.appendReportHead(&w)
		dst = append(w.Buf, w.Buf[same.report[0]:same.report[1]]...)
		return dst, *same, nil
	}
	span.members[0] = len(dst)
	var err error
	if r != nil {
		dst, err = r.appendAnswer(dst)
	} else {
		dst, err = j.appendAnswer(dst)
	}
	if err != nil {
		return dst, span, err
	}
	dst = append(dst, `,"report":`...)
	span.members[1] = len(dst)
	if r != nil {
		w := jsonenc.StringText(dst)
		r.appendReportHead(&w)
		span.report[0] = len(w.Buf)
		r.appendReportBody(&w)
		dst = w.Close()
	} else {
		dst = jsonenc.AppendString(dst, j.Report)
	}
	dst = append(dst, '}')
	span.report[1] = len(dst)
	return dst, span, nil
}

// appendAnswer writes the answer's members of the wire struct, from
// "degraded" through "improvement".
//
//mvlint:hotpath
func (j *RecommendationJSON) appendAnswer(dst []byte) ([]byte, error) {
	dst = appendAnswerHead(dst, j.Degraded, j.Views)
	dst = appendPoints(dst, j.Points)
	return appendAnswerTail(dst, j.Time, j.Hours, &j.Bill, j.Base.Time, j.Base.Hours, &j.Base.Bill, j.Gains)
}

// appendAnswer writes the same members from the solved value, as its
// wire form (JSON) has them.
//
//mvlint:hotpath
func (r *Recommendation) appendAnswer(dst []byte) ([]byte, error) {
	views := r.ViewNames
	if views == nil {
		views = []string{}
	}
	dst = appendAnswerHead(dst, r.Selection.Degraded, views)
	if r.Selection.Points == nil {
		dst = append(dst, "[]"...)
	} else {
		dst = appendPoints(dst, r.Selection.Points)
	}
	bill, baseBill := NewBillJSON(r.Selection.Bill), NewBillJSON(r.BaselineBill)
	return appendAnswerTail(dst, r.Selection.Time.String(), r.Selection.Time.Hours(), &bill,
		r.BaselineTime.String(), r.BaselineTime.Hours(), &baseBill,
		ImprovementJSON{Time: r.TimeImprovement(), Cost: r.CostImprovement()})
}

// appendAnswerHead writes the answer's members up to the points' value:
// the degraded flag when set, and the view names.
//
//mvlint:hotpath
func appendAnswerHead(dst []byte, degraded bool, views []string) []byte {
	if degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"views":`...)
	dst = jsonenc.AppendStrings(dst, views)
	return append(dst, `,"points":`...)
}

// appendAnswerTail writes the answer's members after the points: the
// time, the bill, the baseline and the gains.
//
//mvlint:hotpath
func appendAnswerTail(dst []byte, time string, hours float64, bill *BillJSON, baseTime string, baseHours float64, baseBill *BillJSON, gains ImprovementJSON) ([]byte, error) {
	dst = append(dst, `,"time":`...)
	dst = jsonenc.AppendString(dst, time)
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, hours)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"bill":`...)
	if dst, err = bill.AppendJSON(dst); err != nil {
		return dst, err
	}
	dst = append(dst, `,"baseline":`...)
	if dst, err = appendBaseline(dst, baseTime, baseHours, baseBill); err != nil {
		return dst, err
	}
	dst = append(dst, `,"improvement":`...)
	return gains.AppendJSON(dst)
}

// appendPoints appends lattice coordinates as an array of int arrays,
// null standing for a nil slice at either level.
//
//mvlint:hotpath
func appendPoints[P ~[]int](dst []byte, points []P) []byte {
	if points == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, p := range points {
		if i > 0 {
			dst = append(dst, ',')
		}
		if p == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for k, level := range p {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(level), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// AppendJSON appends the frontier point's wire form to dst.
//
//mvlint:hotpath
func (p ParetoPointJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	dst, err := p.AppendFields(dst)
	return append(dst, '}'), err
}

// AppendFields appends the point's members without the braces, for wire
// structs that embed a ParetoPointJSON among their own fields.
//
//mvlint:hotpath
func (p ParetoPointJSON) AppendFields(dst []byte) ([]byte, error) {
	dst = append(dst, `"alpha":`...)
	dst, err := jsonenc.AppendFloat(dst, p.Alpha)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"time":`...)
	dst = jsonenc.AppendString(dst, p.Time)
	dst = append(dst, `,"time_hours":`...)
	if dst, err = jsonenc.AppendFloat(dst, p.Hours); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	dst = p.Cost.AppendJSON(dst)
	dst = append(dst, `,"views":`...)
	dst = strconv.AppendInt(dst, int64(p.Views), 10)
	if p.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return dst, nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (p ParetoPointJSON) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil) }
