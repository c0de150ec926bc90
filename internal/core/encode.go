package core

import (
	"strconv"

	"vmcloud/internal/jsonenc"
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
	dst = append(dst, `{"time":`...)
	dst = jsonenc.AppendString(dst, b.Time)
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, b.Hours)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"bill":`...)
	dst, err = b.Bill.AppendJSON(dst)
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
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, j.Scenario)
	dst = append(dst, `,"feasible":`...)
	dst = strconv.AppendBool(dst, j.Feasible)
	dst = append(dst, `,"strategy":`...)
	dst = jsonenc.AppendString(dst, j.Strategy)
	if j.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"views":`...)
	dst = jsonenc.AppendStrings(dst, j.Views)
	dst = append(dst, `,"points":`...)
	dst = appendPoints(dst, j.Points)
	dst = append(dst, `,"time":`...)
	dst = jsonenc.AppendString(dst, j.Time)
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, j.Hours)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"bill":`...)
	if dst, err = j.Bill.AppendJSON(dst); err != nil {
		return dst, err
	}
	dst = append(dst, `,"baseline":`...)
	if dst, err = j.Base.AppendJSON(dst); err != nil {
		return dst, err
	}
	dst = append(dst, `,"improvement":`...)
	if dst, err = j.Gains.AppendJSON(dst); err != nil {
		return dst, err
	}
	dst = append(dst, `,"report":`...)
	if j.rec != nil {
		w := jsonenc.StringText(dst)
		j.rec.appendReport(&w)
		dst = w.Close()
	} else {
		dst = jsonenc.AppendString(dst, j.Report)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (j RecommendationJSON) MarshalJSON() ([]byte, error) { return j.AppendJSON(nil) }

// appendPoints appends lattice coordinates as an array of int arrays,
// null standing for a nil slice at either level.
//
//mvlint:hotpath
func appendPoints(dst []byte, points [][]int) []byte {
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
