package compare

import (
	"strconv"

	"vmcloud/internal/core"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
)

// The wire encoders of the compare family. A sweep's are written the
// way internal/core's are: each AppendJSON reproduces encoding/json's
// bytes for its struct, each MarshalJSON delegates to it. A comparison
// has one writer, Comparison.AppendJSON, which reads the solved value;
// its wire structs marshal by reflection, and are its reference. Key is
// embedded in several wire structs (its members appear among theirs)
// and stands alone in others, hence the two Key helpers; it has no
// MarshalJSON of its own, which every struct embedding it would inherit.

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

// AppendJSON appends c's wire form to dst: the bytes of
// json.Marshal(c.JSON()), its reference. It is the one writer of the
// comparison's shape and reads every member from c, so no wire struct is
// built: each duration's text is rendered on the stack, each report is
// written straight into dst, and each distinct answer in a row once
// (appendResults). The eager wire structs of the comparison have no
// encoder of their own; encoding/json marshals them by reflection.
//
//mvlint:hotpath
func (c *Comparison) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"scenarios":`...)
	dst = jsonenc.AppendStrings(dst, c.Scenarios)
	dst = append(dst, `,"configs":`...)
	if len(c.Configs) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range c.Configs {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendConfigResult(dst, &c.Configs[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(c.Winners) > 0 {
		dst = append(dst, `,"winners":[`...)
		for i := range c.Winners {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendWinner(dst, &c.Winners[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if len(c.Pareto) > 0 {
		dst = append(dst, `,"pareto":[`...)
		for i, p := range c.Pareto {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = (ParetoEntryJSON{Key: p.Key, ParetoPointJSON: p.Point.JSON()}).AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if c.BreakEven != nil {
		dst = append(dst, `,"break_even":`...)
		dst = appendBreakEven(dst, c.BreakEven)
	}
	if len(c.Skipped) > 0 {
		dst = append(dst, `,"skipped":`...)
		dst = appendKeys(dst, c.Skipped)
	}
	if c.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = append(dst, `,"report":`...)
	w := jsonenc.StringText(dst)
	c.appendReport(&w)
	return append(w.Close(), '}'), nil
}

// appendConfigResult writes one matrix row: its key, dataset size,
// scenario results and frontier.
//
//mvlint:hotpath
func appendConfigResult(dst []byte, cfg *ConfigResult) ([]byte, error) {
	dst = append(dst, '{')
	dst = appendKeyFields(dst, cfg.Key)
	dst = append(dst, `,"dataset_size":`...)
	var sb [32]byte
	dst = jsonenc.AppendString(dst, string(cfg.DatasetSize.AppendString(sb[:0])))
	var err error
	if len(cfg.Results) > 0 {
		dst = append(dst, `,"results":`...)
		if dst, err = appendResults(dst, cfg.Results); err != nil {
			return dst, err
		}
	}
	if len(cfg.Pareto) > 0 {
		dst = append(dst, `,"pareto":[`...)
		for i, p := range cfg.Pareto {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = p.JSON().AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendResults writes a solved row's matrix cells, each distinct answer
// once: a scenario whose answer equals an earlier scenario's in the row
// (core.Recommendation.SameAnswer) copies that one's bytes and writes
// only its own scenario, feasibility, strategy and report heading.
//
//mvlint:hotpath
func appendResults(dst []byte, results []ScenarioResult) ([]byte, error) {
	var spans [3]core.AnswerSpan // a row solves at most mv1, mv2 and mv3
	dst = append(dst, '[')
	for k := range results {
		if k > 0 {
			dst = append(dst, ',')
		}
		rec := &results[k].Rec
		var same *core.AnswerSpan
		for p := 0; p < min(k, len(spans)); p++ {
			if results[p].Rec.SameAnswer(rec) {
				same = &spans[p]
				break
			}
		}
		dst = append(dst, `{"scenario":`...)
		dst = jsonenc.AppendString(dst, results[k].Scenario)
		dst = append(dst, `,"recommendation":`...)
		var (
			span core.AnswerSpan
			err  error
		)
		if dst, span, err = rec.AppendWire(dst, same); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
		if k < len(spans) {
			spans[k] = span
		}
	}
	return append(dst, ']'), nil
}

// appendWinner writes one scenario's winner.
//
//mvlint:hotpath
func appendWinner(dst []byte, w *Winner) ([]byte, error) {
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, w.Scenario)
	dst = append(dst, ',')
	dst = appendKeyFields(dst, w.Key)
	dst = append(dst, `,"time":`...)
	dst = jsonenc.AppendString(dst, w.Time.String())
	dst = append(dst, `,"time_hours":`...)
	dst, err := jsonenc.AppendFloat(dst, w.Time.Hours())
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"cost":`...)
	dst = w.Cost.AppendJSON(dst)
	dst = append(dst, `,"feasible":`...)
	dst = strconv.AppendBool(dst, w.Feasible)
	return append(dst, '}'), nil
}

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

// appendBreakEven writes the budget sweep. No flips are null, as
// Comparison.JSON leaves them.
//
//mvlint:hotpath
func appendBreakEven(dst []byte, be *BreakEven) []byte {
	dst = append(dst, `{"budgets":`...)
	dst = appendBudgets(dst, be.Budgets)
	dst = append(dst, `,"winners":`...)
	dst = appendKeys(dst, be.Winners)
	dst = append(dst, `,"flips":`...)
	if len(be.Flips) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, f := range be.Flips {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"budget":`...)
			dst = f.Budget.AppendJSON(dst)
			dst = append(dst, `,"from":`...)
			dst = appendKey(dst, f.From)
			dst = append(dst, `,"to":`...)
			dst = appendKey(dst, f.To)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

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
