package core

import (
	"slices"
	"strconv"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/lattice"
)

// The wire writers. A recommendation and a frontier point each have one
// writer, which reads the solved value: Recommendation.AppendWire and
// ParetoPoint.AppendWire write exactly the bytes encoding/json writes
// for the value's wire form (JSON()) — field order, omitempty and
// null-for-nil included — without building it. The wire structs have
// no encoder of their own: encoding/json marshals them by reflection,
// and they are the decode contract and the reference the writers are
// held to (TestAppendJSONMatchesReflection).

// AnswerSpan marks where, in the buffer AppendWire wrote it to, a
// recommendation keeps the bytes its answer alone decides: every member
// but the scenario, feasibility and strategy, and every line of the
// report but the first. Inside those it marks the baseline member's
// object and the view names of the views member.
type AnswerSpan struct {
	// members is the answer's members, up to the report's opening quote;
	// report is the report after its first line, with what closes the
	// recommendation; baseline is the inside of the baseline member's
	// braces; views is the inside of the views member's brackets.
	members, report, baseline, views [2]int
}

// AppendWire appends r's wire form to dst — the bytes of
// json.Marshal(r.JSON()) — reading every member from r itself, so that
// no wire struct is built: each duration's text is written from the
// stack (Duration.String allocates nothing when its result does not
// escape), the points and view names are borrowed, and the report is
// rendered straight into dst, its materialize line from the names the
// views member has already escaped. With same, the mark of a
// recommendation earlier in dst whose answer equals r's (SameAnswer),
// the answer's bytes are copied from there, not written again. It
// returns the mark of what it wrote.
//
//mvlint:hotpath
func (r *Recommendation) AppendWire(dst []byte, same *AnswerSpan) ([]byte, AnswerSpan, error) {
	return r.AppendRowWire(dst, same, nil)
}

// AppendRowWire is AppendWire for a recommendation that shares a
// comparison row with earlier ones: with baseline, the mark of one
// earlier in dst whose baseline equals r's (SameBaseline), and no same,
// the baseline member's bytes are copied from there.
//
//mvlint:hotpath
func (r *Recommendation) AppendRowWire(dst []byte, same, baseline *AnswerSpan) ([]byte, AnswerSpan, error) {
	var span AnswerSpan
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, r.Scenario)
	dst = append(dst, `,"feasible":`...)
	dst = strconv.AppendBool(dst, r.Selection.Feasible)
	dst = append(dst, `,"strategy":`...)
	dst = jsonenc.AppendString(dst, r.Selection.Strategy)
	if same != nil {
		dst = append(dst, dst[same.members[0]:same.members[1]]...)
		w := jsonenc.StringText(dst)
		r.appendReportHead(&w)
		dst = append(w.Buf, w.Buf[same.report[0]:same.report[1]]...)
		return dst, *same, nil
	}
	span.members[0] = len(dst)
	dst, err := r.appendAnswer(dst, &span, baseline)
	if err != nil {
		return dst, span, err
	}
	dst = append(dst, `,"report":`...)
	span.members[1] = len(dst)
	w := jsonenc.StringText(dst)
	r.appendReportHead(&w)
	span.report[0] = len(w.Buf)
	r.appendReportBody(&w, w.Buf[span.views[0]:span.views[1]])
	dst = append(w.Close(), '}')
	span.report[1] = len(dst)
	return dst, span, nil
}

// SameAnswer reports whether r and o write the same answer bytes (see
// AnswerSpan): the same points in the same order, time, bill, degraded
// flag, view names and baseline.
func (r *Recommendation) SameAnswer(o *Recommendation) bool {
	a, b := &r.Selection, &o.Selection
	return a.Time == b.Time && a.Bill == b.Bill && a.Degraded == b.Degraded &&
		r.SameBaseline(o) &&
		slices.EqualFunc(a.Points, b.Points, func(p, q lattice.Point) bool {
			return (p == nil) == (q == nil) && slices.Equal(p, q)
		}) &&
		slices.Equal(r.ViewNames, o.ViewNames)
}

// SameBaseline reports whether r and o write the same baseline member:
// the same no-view time and bill, as every scenario of one configuration
// has.
func (r *Recommendation) SameBaseline(o *Recommendation) bool {
	return r.BaselineTime == o.BaselineTime && r.BaselineBill == o.BaselineBill
}

// appendAnswer writes the answer's members, from "degraded" through
// "improvement", as the wire form has them: nil views and points are
// written empty, a nil point inside the selection null. It marks the
// views and the baseline in span, and copies the baseline from the one
// baseline marks if that is not nil.
//
//mvlint:hotpath
func (r *Recommendation) appendAnswer(dst []byte, span, baseline *AnswerSpan) ([]byte, error) {
	if r.Selection.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"views":[`...)
	span.views[0] = len(dst)
	for i, name := range r.ViewNames {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.AppendString(dst, name)
	}
	span.views[1] = len(dst)
	dst = append(dst, `],"points":[`...)
	for i, p := range r.Selection.Points {
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
	dst = append(dst, ']', ',')
	dst, err := appendTimed(dst, r.Selection.Time, &r.Selection.Bill)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"baseline":{`...)
	span.baseline[0] = len(dst)
	if baseline != nil {
		dst = append(dst, dst[baseline.baseline[0]:baseline.baseline[1]]...)
	} else if dst, err = appendTimed(dst, r.BaselineTime, &r.BaselineBill); err != nil {
		return dst, err
	}
	span.baseline[1] = len(dst)
	dst = append(dst, `},"improvement":{"time":`...)
	if dst, err = jsonenc.AppendFloat(dst, r.TimeImprovement()); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	if dst, err = jsonenc.AppendFloat(dst, r.CostImprovement()); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendTimed writes the members a selection and its baseline share —
// the time, its hours and the bill (BillJSON's shape, flattened from b)
// — without braces.
//
//mvlint:hotpath
func appendTimed(dst []byte, t time.Duration, b *costmodel.Bill) ([]byte, error) {
	dst = append(dst, `"time":`...)
	dst = jsonenc.AppendString(dst, t.String())
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, t.Hours())
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"bill":{"total":`...)
	dst = b.Total().AppendJSON(dst)
	dst = append(dst, `,"compute":`...)
	dst = b.Compute.Total().AppendJSON(dst)
	dst = append(dst, `,"processing":`...)
	dst = b.Compute.Processing.AppendJSON(dst)
	dst = append(dst, `,"maintenance":`...)
	dst = b.Compute.Maintenance.AppendJSON(dst)
	dst = append(dst, `,"materialization":`...)
	dst = b.Compute.Materialization.AppendJSON(dst)
	dst = append(dst, `,"storage":`...)
	dst = b.Storage.AppendJSON(dst)
	dst = append(dst, `,"transfer":`...)
	dst = b.Transfer.AppendJSON(dst)
	return append(dst, '}'), nil
}

// AppendWire appends p's wire members — the fields of
// json.Marshal(p.JSON()) — to dst without braces, so that a caller can
// write them inside an object of its own (a comparison's frontier entry
// puts its key's members first).
//
//mvlint:hotpath
func (p *ParetoPoint) AppendWire(dst []byte) ([]byte, error) {
	dst = append(dst, `"alpha":`...)
	dst, err := jsonenc.AppendFloat(dst, p.Alpha)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"time":`...)
	dst = jsonenc.AppendString(dst, p.Time.String())
	dst = append(dst, `,"time_hours":`...)
	if dst, err = jsonenc.AppendFloat(dst, p.Time.Hours()); err != nil {
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

// AppendFrontier appends front as the array json.Marshal(ParetoJSON(front))
// writes: each point an object of its wire members, [] for none.
//
//mvlint:hotpath
func AppendFrontier(dst []byte, front []ParetoPoint) ([]byte, error) {
	dst = append(dst, '[')
	for i := range front {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		var err error
		if dst, err = front[i].AppendWire(dst); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}
