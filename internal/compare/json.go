package compare

import (
	"fmt"
	"slices"
	"time"

	"vmcloud/internal/core"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
)

// RequestJSON is the wire form of Request, as accepted by POST
// /v1/compare. It embeds the advise ConfigJSON for the shared problem
// fields (fact_rows, months, workload, ...); the per-configuration
// fields (provider, instance_type, instances) are replaced by the
// grid lists and must be left empty.
type RequestJSON struct {
	// Scenarios selects the objectives ("mv1", "mv2", "mv3", "pareto");
	// empty derives the set from the parameters given (see Request).
	Scenarios []string `json:"scenarios,omitempty"`
	// Budget is the MV1 spending limit ("$25.00" or a number of dollars).
	Budget *money.Money `json:"budget,omitempty"`
	// Limit is the MV2 response-time limit as a Go duration ("4h").
	Limit string `json:"limit,omitempty"`
	// Alpha is the MV3 weight on time in [0,1]; default 0.5.
	Alpha *float64 `json:"alpha,omitempty"`
	// Steps is the per-configuration pareto sweep resolution; default 11.
	Steps int `json:"steps,omitempty"`

	// Providers names built-in tariffs; empty means the full catalog.
	Providers []string `json:"providers,omitempty"`
	// InstanceTypes lists configurations to try per provider; default
	// ["small"].
	InstanceTypes []string `json:"instance_types,omitempty"`
	// FleetSizes lists cluster sizes to try; default [5].
	FleetSizes []int `json:"fleet_sizes,omitempty"`
	// BreakEvenSteps is the mv1 budget-sweep resolution; 0 selects 8,
	// negative disables the sweep.
	BreakEvenSteps int `json:"break_even_steps,omitempty"`

	core.ConfigJSON
}

// Normalize canonicalizes the request in place, exactly as the advise
// path does: defaults applied, scenario set resolved and ordered,
// provider/instance/fleet lists sorted and deduplicated, the workload
// rewritten in explicit form. Two spellings of the same comparison
// normalize to identical structs, which is what the server's cache keys
// rely on.
func (rj *RequestJSON) Normalize() error {
	if err := normalizeGrid(&rj.ConfigJSON, &rj.Providers, &rj.InstanceTypes, &rj.FleetSizes); err != nil {
		return err
	}

	// Scenario set: derive, validate, canonicalize order (shared with the
	// native Request path).
	var err error
	rj.Scenarios, err = canonScenarios(rj.Scenarios, rj.Budget != nil, rj.Limit != "")
	if err != nil {
		return err
	}
	if err := normalizeParams(rj.Scenarios, &rj.Budget, &rj.Limit, &rj.Alpha); err != nil {
		return err
	}
	switch {
	case !slices.Contains(rj.Scenarios, "mv1"):
		rj.BreakEvenSteps = 0
	case rj.BreakEvenSteps == 0:
		rj.BreakEvenSteps = defaultBreakEvenSteps
	case rj.BreakEvenSteps < 0:
		rj.BreakEvenSteps = -1
	case rj.BreakEvenSteps == 1:
		return errBreakEvenSteps(rj.BreakEvenSteps)
	}
	if slices.Contains(rj.Scenarios, "pareto") {
		if rj.Steps == 0 {
			rj.Steps = defaultParetoSteps
		}
		if rj.Steps < 2 {
			return fmt.Errorf("compare: pareto needs at least 2 steps, got %d", rj.Steps)
		}
	} else {
		rj.Steps = 0
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

// Configs returns the size of the grid implied by a normalized
// request — what server-side ceilings are checked against.
func (rj RequestJSON) Configs() int {
	return len(rj.Providers) * len(rj.InstanceTypes) * len(rj.FleetSizes)
}

// Resolve converts an already-normalized wire request into a Request
// ready for Run.
func (rj RequestJSON) Resolve() (Request, error) {
	req := Request{
		InstanceTypes:  rj.InstanceTypes,
		FleetSizes:     rj.FleetSizes,
		Scenarios:      rj.Scenarios,
		Alpha:          rj.Alpha,
		Steps:          rj.Steps,
		BreakEvenSteps: rj.BreakEvenSteps,
	}
	var err error
	req.Config, req.Providers, req.Budget, req.Limit, err = resolveGrid(rj.ConfigJSON, rj.Providers, rj.Budget, rj.Limit)
	if err != nil {
		return Request{}, err
	}
	return req, nil
}

// normalizeGrid canonicalizes the grid half every compare-family wire
// request shares — the advise-style singular fields rejected, providers
// defaulted to the full catalog and validated, instance types and fleet
// sizes defaulted, all lists sorted and deduplicated. One implementation
// serves RequestJSON and SweepRequestJSON, so /v1/compare and /v1/sweep
// cannot drift on grid semantics.
func normalizeGrid(cj *core.ConfigJSON, providers *[]string, instanceTypes *[]string, fleetSizes *[]int) error {
	if cj.Provider != "" || len(cj.ProviderSpec) > 0 {
		return fmt.Errorf("compare: use \"providers\" (a list) instead of the advise %q field", "provider")
	}
	if cj.InstanceType != "" {
		return fmt.Errorf("compare: use \"instance_types\" (a list) instead of the advise %q field", "instance_type")
	}
	if cj.Instances != 0 {
		return fmt.Errorf("compare: use \"fleet_sizes\" (a list) instead of the advise %q field", "instances")
	}
	if len(*providers) == 0 {
		*providers = pricing.ProviderNames()
	}
	*providers = dedupeSorted(*providers)
	for _, name := range *providers {
		if !pricing.Exists(name) {
			_, err := pricing.Lookup(name) // words the rejection
			return err
		}
	}
	if len(*instanceTypes) == 0 {
		*instanceTypes = []string{core.DefaultInstanceType}
	}
	*instanceTypes = dedupeSorted(*instanceTypes)
	if len(*fleetSizes) == 0 {
		*fleetSizes = []int{core.DefaultInstances}
	}
	*fleetSizes = dedupeSortedInts(*fleetSizes)
	for _, f := range *fleetSizes {
		if f < 1 {
			return fmt.Errorf("compare: fleet size %d < 1", f)
		}
	}
	return nil
}

// normalizeParams canonicalizes the scenario parameters both wire forms
// carry: those the scenarios need are validated (α defaulted to 0.5),
// the rest zeroed, so irrelevant parameters cannot fragment the cache.
func normalizeParams(scenarios []string, budget **money.Money, limit *string, alpha **float64) error {
	if !slices.Contains(scenarios, "mv1") {
		*budget = nil
	} else if *budget == nil {
		return fmt.Errorf("compare: budget required for scenario mv1")
	} else if **budget <= 0 {
		return fmt.Errorf("compare: non-positive budget %v", **budget)
	}
	if !slices.Contains(scenarios, "mv2") {
		*limit = ""
	} else if *limit == "" {
		return fmt.Errorf("compare: limit required for scenario mv2")
	} else {
		d, err := time.ParseDuration(*limit)
		if err != nil {
			return fmt.Errorf("compare: limit: %v", err)
		}
		if d <= 0 {
			return fmt.Errorf("compare: non-positive limit %v", d)
		}
		*limit = d.String()
	}
	if !slices.Contains(scenarios, "mv3") {
		*alpha = nil
		return nil
	}
	if *alpha == nil {
		a := defaultAlpha
		*alpha = &a
	}
	if !(**alpha >= 0 && **alpha <= 1) {
		return fmt.Errorf("compare: alpha %g out of [0,1]", **alpha)
	}
	return nil
}

// resolveGrid resolves what both normalized wire forms share: the
// advisory problem (core.ConfigJSON.Resolve, whose Provider stays nil
// as the grid forms name no single tariff), the grid's tariffs, and the
// MV1 and MV2 parameters.
func resolveGrid(cj core.ConfigJSON, names []string, budget *money.Money, limit string) (core.Config, []pricing.Provider, money.Money, time.Duration, error) {
	cfg, err := cj.Resolve()
	if err != nil {
		return core.Config{}, nil, 0, 0, err
	}
	provs := make([]pricing.Provider, 0, len(names))
	for _, name := range names {
		// The catalog's own tariff: normalize and the cells only read it.
		p, err := pricing.LookupShared(name)
		if err != nil {
			return core.Config{}, nil, 0, 0, err
		}
		provs = append(provs, *p)
	}
	var b money.Money
	if budget != nil {
		b = *budget
	}
	var d time.Duration
	if limit != "" {
		if d, err = time.ParseDuration(limit); err != nil {
			return core.Config{}, nil, 0, 0, fmt.Errorf("compare: limit: %v", err)
		}
	}
	return cfg, provs, b, d, nil
}

// ScenarioResultJSON is one matrix cell on the wire.
type ScenarioResultJSON struct {
	Scenario       string                  `json:"scenario"`
	Recommendation core.RecommendationJSON `json:"recommendation"`
}

// ConfigResultJSON is one matrix row on the wire.
type ConfigResultJSON struct {
	Key
	DatasetSize string                 `json:"dataset_size"`
	Results     []ScenarioResultJSON   `json:"results,omitempty"`
	Pareto      []core.ParetoPointJSON `json:"pareto,omitempty"`
}

// WinnerJSON is a per-scenario winner on the wire.
type WinnerJSON struct {
	Scenario string `json:"scenario"`
	Key
	Time     string      `json:"time"`
	Hours    float64     `json:"time_hours"`
	Cost     money.Money `json:"cost"`
	Feasible bool        `json:"feasible"`
}

// ParetoEntryJSON is one global frontier point on the wire.
type ParetoEntryJSON struct {
	Key
	core.ParetoPointJSON
}

// FlipJSON is one break-even flip on the wire.
type FlipJSON struct {
	Budget money.Money `json:"budget"`
	From   Key         `json:"from"`
	To     Key         `json:"to"`
}

// BreakEvenJSON is the budget sweep on the wire.
type BreakEvenJSON struct {
	Budgets []money.Money `json:"budgets"`
	Winners []Key         `json:"winners"`
	Flips   []FlipJSON    `json:"flips"`
}

// ComparisonJSON is the body of a successful POST /v1/compare.
type ComparisonJSON struct {
	Scenarios []string           `json:"scenarios"`
	Configs   []ConfigResultJSON `json:"configs"`
	Winners   []WinnerJSON       `json:"winners,omitempty"`
	Pareto    []ParetoEntryJSON  `json:"pareto,omitempty"`
	BreakEven *BreakEvenJSON     `json:"break_even,omitempty"`
	Skipped   []Key              `json:"skipped,omitempty"`
	// Degraded marks a comparison with at least one deadline-degraded
	// cell; omitted when false so pre-deadline bodies are byte-identical.
	Degraded bool `json:"degraded,omitempty"`
	// Report is the human-readable rendering (Comparison.Render).
	Report string `json:"report"`
}

// JSON renders the comparison in wire form. encoding/json marshals it to
// the bytes Comparison.AppendJSON writes.
func (c *Comparison) JSON() ComparisonJSON {
	out := ComparisonJSON{
		Scenarios: c.Scenarios,
		Skipped:   c.Skipped,
		Degraded:  c.Degraded,
		Report:    c.Render(),
	}
	if len(c.Configs) > 0 {
		out.Configs = make([]ConfigResultJSON, len(c.Configs))
	}
	for i := range c.Configs {
		cfg := &c.Configs[i]
		cj := ConfigResultJSON{Key: cfg.Key, DatasetSize: cfg.DatasetSize.String()}
		if len(cfg.Pareto) > 0 {
			cj.Pareto = core.ParetoJSON(cfg.Pareto)
		}
		if len(cfg.Results) > 0 {
			cj.Results = make([]ScenarioResultJSON, len(cfg.Results))
		}
		for k := range cfg.Results {
			r := &cfg.Results[k]
			cj.Results[k] = ScenarioResultJSON{Scenario: r.Scenario, Recommendation: r.Rec.JSON()}
		}
		out.Configs[i] = cj
	}
	if len(c.Winners) > 0 {
		out.Winners = make([]WinnerJSON, len(c.Winners))
	}
	for i, w := range c.Winners {
		out.Winners[i] = WinnerJSON{
			Scenario: w.Scenario,
			Key:      w.Key,
			Time:     w.Time.String(),
			Hours:    w.Time.Hours(),
			Cost:     w.Cost,
			Feasible: w.Feasible,
		}
	}
	if len(c.Pareto) > 0 {
		out.Pareto = make([]ParetoEntryJSON, len(c.Pareto))
	}
	for i, p := range c.Pareto {
		out.Pareto[i] = ParetoEntryJSON{Key: p.Key, ParetoPointJSON: p.Point.JSON()}
	}
	if c.BreakEven != nil {
		be := &BreakEvenJSON{Budgets: c.BreakEven.Budgets, Winners: c.BreakEven.Winners}
		if len(c.BreakEven.Flips) > 0 {
			be.Flips = make([]FlipJSON, len(c.BreakEven.Flips))
		}
		for i, f := range c.BreakEven.Flips {
			be.Flips[i] = FlipJSON(f)
		}
		out.BreakEven = be
	}
	return out
}

func dedupeSorted(xs []string) []string {
	out := append([]string(nil), xs...)
	slices.Sort(out)
	return slices.Compact(out)
}

func dedupeSortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	slices.Sort(out)
	return slices.Compact(out)
}
