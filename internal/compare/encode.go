package compare

import (
	"strconv"

	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
)

// The wire encoders of the compare family, written the way
// internal/core's are: each AppendJSON reproduces encoding/json's bytes
// for its struct, each MarshalJSON delegates to it. Key is embedded in
// several wire structs (its members appear among theirs) and stands
// alone in others, hence the two Key helpers; it has no MarshalJSON of
// its own, which every struct embedding it would inherit.

// appendKeyFields appends k's members without braces.
//
//mvlint:hotpath
func appendKeyFields(dst []byte, k Key) []byte {
	dst = append(dst, `"provider":`...)
	dst = jsonenc.AppendString(dst, k.Provider)
	dst = append(dst, `,"instance_type":`...)
	dst = jsonenc.AppendString(dst, k.InstanceType)
	dst = append(dst, `,"instances":`...)
	return strconv.AppendInt(dst, int64(k.Instances), 10)
}

// appendKey appends k as an object.
//
//mvlint:hotpath
func appendKey(dst []byte, k Key) []byte {
	dst = append(dst, '{')
	dst = appendKeyFields(dst, k)
	return append(dst, '}')
}

// appendKeys appends an array of keys, null for a nil slice.
//
//mvlint:hotpath
func appendKeys(dst []byte, keys []Key) []byte {
	if keys == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendKey(dst, k)
	}
	return append(dst, ']')
}

// AppendJSON appends the matrix cell's wire form to dst.
//
//mvlint:hotpath
func (r ScenarioResultJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, r.Scenario)
	dst = append(dst, `,"recommendation":`...)
	dst, err := r.Recommendation.AppendJSON(dst)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (r ScenarioResultJSON) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// AppendJSON appends the matrix row's wire form to dst.
//
//mvlint:hotpath
func (c ConfigResultJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	dst = appendKeyFields(dst, c.Key)
	dst = append(dst, `,"dataset_size":`...)
	dst = jsonenc.AppendString(dst, c.DatasetSize)
	var err error
	if len(c.Results) > 0 {
		dst = append(dst, `,"results":`...)
		if dst, err = jsonenc.AppendArray(dst, c.Results); err != nil {
			return dst, err
		}
	}
	if len(c.Pareto) > 0 {
		dst = append(dst, `,"pareto":`...)
		if dst, err = jsonenc.AppendArray(dst, c.Pareto); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (c ConfigResultJSON) MarshalJSON() ([]byte, error) { return c.AppendJSON(nil) }

// AppendJSON appends the winner's wire form to dst.
//
//mvlint:hotpath
func (w WinnerJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, w.Scenario)
	dst = append(dst, ',')
	dst = appendKeyFields(dst, w.Key)
	dst = append(dst, `,"time":`...)
	dst = jsonenc.AppendString(dst, w.Time)
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, w.Hours)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	dst = w.Cost.AppendJSON(dst)
	dst = append(dst, `,"feasible":`...)
	dst = strconv.AppendBool(dst, w.Feasible)
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (w WinnerJSON) MarshalJSON() ([]byte, error) { return w.AppendJSON(nil) }

// AppendJSON appends the frontier entry's wire form to dst: the key's
// members followed by the point's, in one object.
//
//mvlint:hotpath
func (p ParetoEntryJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	dst = appendKeyFields(dst, p.Key)
	dst = append(dst, ',')
	dst, err := p.ParetoPointJSON.AppendFields(dst)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler through AppendJSON. Without it
// the embedded point's MarshalJSON would be promoted and drop the key.
func (p ParetoEntryJSON) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil) }

// AppendJSON appends the flip's wire form to dst.
//
//mvlint:hotpath
func (f FlipJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"budget":`...)
	dst = f.Budget.AppendJSON(dst)
	dst = append(dst, `,"from":`...)
	dst = appendKey(dst, f.From)
	dst = append(dst, `,"to":`...)
	dst = appendKey(dst, f.To)
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (f FlipJSON) MarshalJSON() ([]byte, error) { return f.AppendJSON(nil) }

// AppendJSON appends the budget sweep's wire form to dst.
//
//mvlint:hotpath
func (b BreakEvenJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"budgets":`...)
	dst = appendBudgets(dst, b.Budgets)
	dst = append(dst, `,"winners":`...)
	dst = appendKeys(dst, b.Winners)
	dst = append(dst, `,"flips":`...)
	dst, err := jsonenc.AppendArray(dst, b.Flips)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (b BreakEvenJSON) MarshalJSON() ([]byte, error) { return b.AppendJSON(nil) }

// appendBudgets appends an array of amounts, null for a nil slice.
//
//mvlint:hotpath
func appendBudgets(dst []byte, budgets []money.Money) []byte {
	if budgets == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, b := range budgets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = b.AppendJSON(dst)
	}
	return append(dst, ']')
}

// AppendJSON appends the comparison's wire form to dst.
//
//mvlint:hotpath
func (c ComparisonJSON) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"scenarios":`...)
	dst = jsonenc.AppendStrings(dst, c.Scenarios)
	dst = append(dst, `,"configs":`...)
	if dst, err = jsonenc.AppendArray(dst, c.Configs); err != nil {
		return dst, err
	}
	if len(c.Winners) > 0 {
		dst = append(dst, `,"winners":`...)
		if dst, err = jsonenc.AppendArray(dst, c.Winners); err != nil {
			return dst, err
		}
	}
	if len(c.Pareto) > 0 {
		dst = append(dst, `,"pareto":`...)
		if dst, err = jsonenc.AppendArray(dst, c.Pareto); err != nil {
			return dst, err
		}
	}
	if c.BreakEven != nil {
		dst = append(dst, `,"break_even":`...)
		if dst, err = c.BreakEven.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	if len(c.Skipped) > 0 {
		dst = append(dst, `,"skipped":`...)
		dst = appendKeys(dst, c.Skipped)
	}
	if c.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"report":`...)
	if c.src != nil {
		w := jsonenc.StringText(dst)
		c.src.appendReport(&w)
		dst = w.Close()
	} else {
		dst = jsonenc.AppendString(dst, c.Report)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (c ComparisonJSON) MarshalJSON() ([]byte, error) { return c.AppendJSON(nil) }

// AppendJSON appends the grid cell's wire form to dst.
//
//mvlint:hotpath
func (c SweepCellJSON) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	dst = appendKeyFields(dst, c.Key)
	dst = append(dst, `,"dataset_size":`...)
	dst = jsonenc.AppendString(dst, c.DatasetSize)
	dst = append(dst, `,"recommendation":`...)
	dst, err := c.Recommendation.AppendJSON(dst)
	return append(dst, '}'), err
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (c SweepCellJSON) MarshalJSON() ([]byte, error) { return c.AppendJSON(nil) }

// AppendJSON appends the sweep's wire form to dst.
//
//mvlint:hotpath
func (s SweepJSON) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, s.Scenario)
	dst = append(dst, `,"cells":`...)
	if dst, err = jsonenc.AppendArray(dst, s.Cells); err != nil {
		return dst, err
	}
	dst = append(dst, `,"best":`...)
	dst = appendKey(dst, s.Best)
	if len(s.Skipped) > 0 {
		dst = append(dst, `,"skipped":`...)
		dst = appendKeys(dst, s.Skipped)
	}
	if s.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"report":`...)
	if s.src != nil {
		w := jsonenc.StringText(dst)
		s.src.appendReport(&w)
		dst = w.Close()
	} else {
		dst = jsonenc.AppendString(dst, s.Report)
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (s SweepJSON) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }
