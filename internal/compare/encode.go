package compare

import (
	"strconv"

	"vmcloud/internal/core"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
)

// The wire writers of the compare family. A comparison and a sweep each
// have one writer, Comparison.AppendJSON and Sweep.AppendJSON, which
// reads the solved value and writes exactly the bytes encoding/json
// writes for its wire form (JSON()) without building it. The wire
// structs have no encoder of their own: encoding/json marshals them by
// reflection, and they are the decode contract and the reference the
// writers are held to. Key is embedded in several wire structs (its
// members appear among theirs) and stands alone in others, hence the
// two Key helpers.

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
			dst = append(dst, '{')
			dst = appendKeyFields(dst, p.Key)
			dst = append(dst, ',')
			if dst, err = p.Point.AppendWire(dst); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
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
	dst = cfg.DatasetSize.AppendJSON(dst)
	var err error
	if len(cfg.Results) > 0 {
		dst = append(dst, `,"results":`...)
		if dst, err = appendResults(dst, cfg.Results); err != nil {
			return dst, err
		}
	}
	if len(cfg.Pareto) > 0 {
		dst = append(dst, `,"pareto":`...)
		if dst, err = core.AppendFrontier(dst, cfg.Pareto); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendResults writes a solved row's matrix cells, each distinct answer
// and each distinct baseline once: a scenario whose answer equals an
// earlier scenario's in the row (core.Recommendation.SameAnswer) copies
// that one's bytes and writes only its own scenario, feasibility,
// strategy and report heading, and one whose baseline alone equals an
// earlier one's (SameBaseline, as a row's scenarios share their
// configuration's) copies the baseline member.
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
		var same, baseline *core.AnswerSpan
		for p := 0; p < min(k, len(spans)); p++ {
			if prior := &results[p].Rec; prior.SameAnswer(rec) {
				same = &spans[p]
				break
			} else if baseline == nil && prior.SameBaseline(rec) {
				baseline = &spans[p]
			}
		}
		dst = append(dst, `{"scenario":`...)
		dst = jsonenc.AppendString(dst, results[k].Scenario)
		dst = append(dst, `,"recommendation":`...)
		var (
			span core.AnswerSpan
			err  error
		)
		if dst, span, err = rec.AppendRowWire(dst, same, baseline); err != nil {
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

// AppendJSON appends s's wire form to dst: the bytes of
// json.Marshal(s.JSON()), its reference. It is the one writer of the
// sweep's shape and reads every member from s, as Comparison.AppendJSON
// does: each cell's recommendation through its own writer, the report
// straight into dst.
//
//mvlint:hotpath
func (s *Sweep) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"scenario":`...)
	dst = jsonenc.AppendString(dst, s.Scenario)
	dst = append(dst, `,"cells":`...)
	if len(s.Cells) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range s.Cells {
			if i > 0 {
				dst = append(dst, ',')
			}
			c := &s.Cells[i]
			dst = append(dst, '{')
			dst = appendKeyFields(dst, c.Key)
			dst = append(dst, `,"dataset_size":`...)
			dst = c.DatasetSize.AppendJSON(dst)
			dst = append(dst, `,"recommendation":`...)
			var err error
			if dst, _, err = c.Rec.AppendWire(dst, nil); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
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
	w := jsonenc.StringText(dst)
	s.appendReport(&w)
	return append(w.Close(), '}'), nil
}
