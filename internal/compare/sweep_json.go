package compare

import (
	"vmcloud/internal/core"
	"vmcloud/internal/money"
)

// SweepRequestJSON is the wire form of SweepRequest, as accepted by POST
// /v1/sweep. Like the compare wire form it embeds the advise ConfigJSON
// for the shared problem fields; the per-configuration fields are
// replaced by the grid lists.
type SweepRequestJSON struct {
	// Scenario is the single swept objective: "mv1", "mv2" or "mv3".
	// Empty derives it from the parameters given (see SweepRequest).
	Scenario string `json:"scenario,omitempty"`
	// Budget is the MV1 spending limit ("$25.00" or a number of dollars).
	Budget *money.Money `json:"budget,omitempty"`
	// Limit is the MV2 response-time limit as a Go duration ("4h").
	Limit string `json:"limit,omitempty"`
	// Alpha is the MV3 weight on time in [0,1]; default 0.5.
	Alpha *float64 `json:"alpha,omitempty"`

	// Providers names built-in tariffs; empty means the full catalog.
	Providers []string `json:"providers,omitempty"`
	// InstanceTypes lists configurations to try per provider; default
	// ["small"].
	InstanceTypes []string `json:"instance_types,omitempty"`
	// FleetSizes lists cluster sizes to try; default [5].
	FleetSizes []int `json:"fleet_sizes,omitempty"`

	core.ConfigJSON
}

// Normalize canonicalizes the request in place, exactly as the compare
// wire form does: defaults applied, the scenario resolved, grid lists
// sorted and deduplicated, the workload rewritten in explicit form. Two
// spellings of the same sweep normalize to identical structs — the
// server's memoization keys rely on it.
func (rj *SweepRequestJSON) Normalize() error {
	if err := normalizeGrid(&rj.ConfigJSON, &rj.Providers, &rj.InstanceTypes, &rj.FleetSizes); err != nil {
		return err
	}

	scenario, err := canonSweepScenario(rj.Scenario, rj.Budget != nil, rj.Limit != "")
	if err != nil {
		return err
	}
	rj.Scenario = scenario

	if err := normalizeParams([]string{scenario}, &rj.Budget, &rj.Limit, &rj.Alpha); err != nil {
		return err
	}

	// Shared problem fields: reuse the advise canonicalization, then strip
	// the per-configuration fields it defaulted.
	if err := rj.ConfigJSON.Normalize(); err != nil {
		return err
	}
	rj.ConfigJSON.Provider = ""
	rj.ConfigJSON.InstanceType = ""
	rj.ConfigJSON.Instances = 0
	return nil
}

// Configs returns the size of the grid implied by a normalized request.
func (rj SweepRequestJSON) Configs() int {
	return len(rj.Providers) * len(rj.InstanceTypes) * len(rj.FleetSizes)
}

// Resolve converts an already-normalized wire request into a
// SweepRequest ready for RunSweep.
func (rj SweepRequestJSON) Resolve() (SweepRequest, error) {
	req := SweepRequest{
		InstanceTypes: rj.InstanceTypes,
		FleetSizes:    rj.FleetSizes,
		Scenario:      rj.Scenario,
		Alpha:         rj.Alpha,
	}
	var err error
	req.Config, req.Providers, req.Budget, req.Limit, err = resolveGrid(rj.ConfigJSON, rj.Providers, rj.Budget, rj.Limit)
	if err != nil {
		return SweepRequest{}, err
	}
	return req, nil
}

// SweepCellJSON is one grid cell on the wire.
type SweepCellJSON struct {
	Key
	DatasetSize    string                  `json:"dataset_size"`
	Recommendation core.RecommendationJSON `json:"recommendation"`
}

// SweepJSON is the body of a successful POST /v1/sweep.
type SweepJSON struct {
	Scenario string          `json:"scenario"`
	Cells    []SweepCellJSON `json:"cells"`
	Best     Key             `json:"best"`
	Skipped  []Key           `json:"skipped,omitempty"`
	// Degraded marks a sweep with at least one deadline-degraded cell;
	// omitted when false.
	Degraded bool `json:"degraded,omitempty"`
	// Report is the human-readable rendering (Sweep.Render).
	Report string `json:"report"`
}

// JSON renders the sweep in wire form: the reference Sweep.AppendJSON's
// bytes are held to, and what encoding/json marshals for a caller that
// wants the struct.
func (s *Sweep) JSON() SweepJSON {
	out := SweepJSON{
		Scenario: s.Scenario,
		Best:     s.Best,
		Skipped:  s.Skipped,
		Degraded: s.Degraded,
		Report:   s.Render(),
	}
	if len(s.Cells) > 0 {
		out.Cells = make([]SweepCellJSON, len(s.Cells))
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		out.Cells[i] = SweepCellJSON{Key: c.Key, DatasetSize: c.DatasetSize.String(), Recommendation: c.Rec.JSON()}
	}
	return out
}
