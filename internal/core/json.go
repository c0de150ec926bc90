package core

import (
	"encoding/json"
	"fmt"
	"time"

	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/units"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

// ConfigJSON is the wire form of Config, as accepted by the mvcloudd API.
// Every field is optional; zero values select the paper's experimental
// defaults, exactly as Config does. The schema is always the sales star
// schema — the only one the wire format names levels for.
type ConfigJSON struct {
	// Provider names a built-in tariff (see pricing.Catalog); ignored when
	// ProviderSpec is given.
	Provider string `json:"provider,omitempty"`
	// ProviderSpec is an inline tariff in the pricing JSON wire format.
	ProviderSpec json.RawMessage `json:"provider_spec,omitempty"`
	InstanceType string          `json:"instance_type,omitempty"`
	Instances    int             `json:"instances,omitempty"`
	FactRows     int64           `json:"fact_rows,omitempty"`
	Months       float64         `json:"months,omitempty"`
	// Queries selects the paper's n-query sales workload (1..10); ignored
	// when Workload lists queries explicitly.
	Queries int `json:"queries,omitempty"`
	// Frequency overrides every query's monthly execution count (≥ 1).
	Frequency int                  `json:"frequency,omitempty"`
	Workload  []workload.QueryJSON `json:"workload,omitempty"`
	// CandidateBudget caps the pre-selected candidate views.
	CandidateBudget int     `json:"candidate_budget,omitempty"`
	MaintenanceRuns int     `json:"maintenance_runs,omitempty"`
	UpdateRatio     float64 `json:"update_ratio,omitempty"`
	// MaintenancePolicy is "immediate" (default) or "deferred".
	MaintenancePolicy string `json:"maintenance_policy,omitempty"`
	// JobOverhead is a Go duration string, e.g. "2m".
	JobOverhead string `json:"job_overhead,omitempty"`
	// Solver is "knapsack" (default), "search" or "auto".
	Solver string `json:"solver,omitempty"`
	// Seed drives the search solver's randomized restarts; identical
	// seeds yield byte-identical responses. Canonicalized to 0 when the
	// solver is "knapsack" (which ignores it), so seed spellings cannot
	// fragment the response cache.
	Seed int64 `json:"seed,omitempty"`

	// resolved is the workload Normalize resolved Workload from (empty
	// for the paper's, which it copied from the tables), and resolvedFor
	// the first element of the Workload slice it wrote beside it:
	// ResolveWorkload trusts them only while Workload is still that
	// slice.
	resolved    workload.Workload
	resolvedFor *workload.QueryJSON
}

// Normalize fills every defaulted field with its concrete value and
// rewrites the workload in fully resolved form (levels + point + name +
// frequency), so that two requests describing the same advisory problem
// normalize to identical structs. It reports the first validation error.
func (cj *ConfigJSON) Normalize() error {
	if len(cj.ProviderSpec) > 0 {
		p, err := pricing.UnmarshalProvider(cj.ProviderSpec)
		if err != nil {
			return err
		}
		// Re-marshal so formatting differences don't fragment the form.
		canon, err := pricing.MarshalProvider(p)
		if err != nil {
			return err
		}
		cj.ProviderSpec = canon
		cj.Provider = ""
	} else {
		if cj.Provider == "" {
			cj.Provider = pricing.AWS2012Name
		}
		if !pricing.Exists(cj.Provider) {
			_, err := pricing.Lookup(cj.Provider) // words the rejection
			return err
		}
	}
	if cj.InstanceType == "" {
		cj.InstanceType = DefaultInstanceType
	}
	if cj.Instances == 0 {
		cj.Instances = DefaultInstances
	}
	if cj.Instances < 0 {
		return fmt.Errorf("core: negative fleet size %d", cj.Instances)
	}
	if cj.FactRows == 0 {
		cj.FactRows = DefaultFactRows
	}
	if cj.FactRows < 0 {
		return fmt.Errorf("core: negative fact_rows %d", cj.FactRows)
	}
	if cj.Months == 0 {
		cj.Months = DefaultMonths
	}
	if cj.Months < 0 {
		return fmt.Errorf("core: negative months %g", cj.Months)
	}
	if cj.CandidateBudget == 0 {
		cj.CandidateBudget = DefaultCandidateBudget
	}
	if cj.MaintenanceRuns == 0 {
		cj.MaintenanceRuns = DefaultMaintenanceRuns
	}
	if cj.MaintenanceRuns < 0 {
		return fmt.Errorf("core: negative maintenance_runs %d", cj.MaintenanceRuns)
	}
	if cj.UpdateRatio == 0 {
		cj.UpdateRatio = DefaultUpdateRatio
	}
	if cj.UpdateRatio < 0 || cj.UpdateRatio > 1 {
		return fmt.Errorf("core: update_ratio %g out of [0,1]", cj.UpdateRatio)
	}
	if cj.CandidateBudget < 0 {
		return fmt.Errorf("core: negative candidate_budget %d", cj.CandidateBudget)
	}
	switch cj.MaintenancePolicy {
	case "":
		cj.MaintenancePolicy = "immediate"
	case "immediate", "deferred":
	default:
		return fmt.Errorf("core: unknown maintenance policy %q (want immediate or deferred)", cj.MaintenancePolicy)
	}
	solver, err := CanonSolver(cj.Solver)
	if err != nil {
		return err
	}
	cj.Solver = solver
	if cj.Solver == SolverAuto {
		// The wire format is sales-schema-only, whose candidate pool
		// (≤ 15, and server-capped at 16) can never exceed
		// AutoSearchThreshold — so on the wire "auto" always resolves to
		// the knapsack. Canonicalize it eagerly: the seed-zeroing below
		// then needs no distant invariant, and any future wire field
		// that grows the schema must revisit this line explicitly.
		cj.Solver = SolverKnapsack
	}
	if cj.Solver != SolverSearch {
		// The DP solver is seed-independent; canonicalize the seed away
		// so spellings cannot fragment the memoization key space.
		cj.Seed = 0
	}
	if cj.JobOverhead == "" {
		cj.JobOverhead = defaultJobOverheadText
	} else {
		d, err := time.ParseDuration(cj.JobOverhead)
		if err != nil {
			return fmt.Errorf("core: job_overhead: %w", err)
		}
		if d < 0 {
			return fmt.Errorf("core: negative job_overhead %v", d)
		}
		cj.JobOverhead = d.String()
	}

	// Resolve the workload to its explicit form. The sales schema's
	// level names, points and query names do not depend on fact_rows,
	// so this reads package-level tables and builds no lattice; the one
	// lattice of a request is NewShared's. The paper's workload is copied
	// from the tables in wire form and resolved only when a solve asks
	// (ResolveWorkload).
	var w workload.Workload
	if len(cj.Workload) > 0 {
		w, err = workload.FromJSON(cj.Workload)
	} else {
		if cj.Queries == 0 {
			cj.Queries = 10
		}
		cj.Workload, err = workload.SalesJSON(cj.Queries, cj.Frequency)
	}
	if err != nil {
		return err
	}
	// The workload below is now explicit; zero the shorthand so both
	// spellings of the same problem share one canonical form (and
	// re-normalizing is a fixed point).
	cj.Queries = 0
	if cj.Frequency < 0 {
		return fmt.Errorf("core: negative frequency %d", cj.Frequency)
	}
	if w.Queries != nil {
		if cj.Frequency > 0 {
			for i := range w.Queries {
				w.Queries[i].Frequency = cj.Frequency
			}
		}
		cj.Workload = w.JSON()
	}
	cj.Frequency = 0
	cj.resolved, cj.resolvedFor = w, &cj.Workload[0]
	return nil
}

// defaultJobOverheadText is DefaultJobOverhead's canonical spelling, its
// String(), as a constant so that normalization does not format it.
const defaultJobOverheadText = "2m0s"

// ResolveWorkload returns the workload of a normalized config. While cj
// still holds the wire form Normalize wrote (the common case —
// canonicalize, then solve — re-parses nothing), that is the workload
// Normalize resolved, or for the paper's, its first queries at the
// frequencies Workload names; otherwise Workload resolved afresh (a
// config decoded from a canonical key, or one given another workload
// since).
func (cj *ConfigJSON) ResolveWorkload() (workload.Workload, error) {
	if n := len(cj.Workload); n > 0 && &cj.Workload[0] == cj.resolvedFor {
		switch len(cj.resolved.Queries) {
		case n:
			return cj.resolved, nil
		case 0:
			w, err := workload.SalesPrefix(n)
			for i := range w.Queries {
				w.Queries[i].Frequency = cj.Workload[i].Frequency
			}
			return w, err
		}
	}
	return workload.FromJSON(cj.Workload)
}

// Config resolves the wire form into a Config ready for New. It calls
// Normalize first, so defaults and validation match the wire semantics.
func (cj ConfigJSON) Config() (Config, error) {
	if err := cj.Normalize(); err != nil {
		return Config{}, err
	}
	return cj.Resolve()
}

// Resolve resolves an already-normalized wire config into a Config
// without re-running Normalize — the hot path for servers that
// canonicalized the request earlier. Callers holding arbitrary input
// should use Config instead. A tariff named by Provider is the catalog's
// own (pricing.LookupShared): Config.Provider is to be read, not edited.
// A config that names no tariff (the grid wire forms, whose tariffs are
// lists of their own) resolves with a nil Provider, New's default.
func (cj *ConfigJSON) Resolve() (Config, error) {
	cfg := Config{
		InstanceType:    cj.InstanceType,
		Instances:       cj.Instances,
		FactRows:        cj.FactRows,
		Months:          cj.Months,
		CandidateBudget: cj.CandidateBudget,
		MaintenanceRuns: cj.MaintenanceRuns,
		UpdateRatio:     cj.UpdateRatio,
		Solver:          cj.Solver,
		Seed:            cj.Seed,
	}
	if len(cj.ProviderSpec) > 0 {
		p, err := pricing.UnmarshalProvider(cj.ProviderSpec)
		if err != nil {
			return Config{}, err
		}
		cfg.Provider = &p
	} else if cj.Provider != "" {
		p, err := pricing.LookupShared(cj.Provider)
		if err != nil {
			return Config{}, err
		}
		cfg.Provider = p
	}
	if cj.MaintenancePolicy == "deferred" {
		cfg.MaintenancePolicy = views.DeferredMaintenance
	}
	d, err := time.ParseDuration(cj.JobOverhead)
	if err != nil {
		return Config{}, fmt.Errorf("core: job_overhead: %w", err)
	}
	cfg.JobOverhead = d
	cfg.Workload, err = cj.ResolveWorkload()
	if err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// BillJSON is the wire form of a priced bill (Formula 1 decomposed).
type BillJSON struct {
	Total           money.Money `json:"total"`
	Compute         money.Money `json:"compute"`
	Processing      money.Money `json:"processing"`
	Maintenance     money.Money `json:"maintenance"`
	Materialization money.Money `json:"materialization"`
	Storage         money.Money `json:"storage"`
	Transfer        money.Money `json:"transfer"`
}

// NewBillJSON flattens a Bill for the wire.
func NewBillJSON(b costmodel.Bill) BillJSON {
	return BillJSON{
		Total:           b.Total(),
		Compute:         b.Compute.Total(),
		Processing:      b.Compute.Processing,
		Maintenance:     b.Compute.Maintenance,
		Materialization: b.Compute.Materialization,
		Storage:         b.Storage,
		Transfer:        b.Transfer,
	}
}

// RecommendationJSON is the wire form of a Recommendation.
type RecommendationJSON struct {
	Scenario string `json:"scenario"`
	Feasible bool   `json:"feasible"`
	Strategy string `json:"strategy"`
	// Degraded marks a recommendation whose search stopped at the solve
	// deadline with its best incumbent (never worse than the knapsack
	// warm start). Omitted when false, so pre-deadline wire forms are
	// byte-identical.
	Degraded bool `json:"degraded,omitempty"`
	// Views names the selected cuboids ("year×country"); Points carries
	// the raw lattice coordinates for programmatic callers.
	Views  []string        `json:"views"`
	Points [][]int         `json:"points"`
	Time   string          `json:"time"`
	Hours  float64         `json:"time_hours"`
	Bill   BillJSON        `json:"bill"`
	Base   BaselineJSON    `json:"baseline"`
	Gains  ImprovementJSON `json:"improvement"`
	// Report is the human-readable rendering (Recommendation.Render).
	Report string `json:"report"`
}

// BaselineJSON is the no-view reference configuration.
type BaselineJSON struct {
	Time  string   `json:"time"`
	Hours float64  `json:"time_hours"`
	Bill  BillJSON `json:"bill"`
}

// ImprovementJSON carries the relative gains over the baseline.
type ImprovementJSON struct {
	Time float64 `json:"time"`
	Cost float64 `json:"cost"`
}

// JSON renders the recommendation in wire form: the reference
// AppendWire's bytes are held to, and what encoding/json marshals for a
// caller that wants the struct. The result shares the recommendation's
// view names and points; treat it as read-only.
func (r Recommendation) JSON() RecommendationJSON {
	views := r.ViewNames
	if views == nil {
		views = []string{}
	}
	points := make([][]int, len(r.Selection.Points))
	for i, p := range r.Selection.Points {
		points[i] = p
	}
	return RecommendationJSON{
		Scenario: r.Scenario,
		Feasible: r.Selection.Feasible,
		Strategy: r.Selection.Strategy,
		Degraded: r.Selection.Degraded,
		Views:    views,
		Points:   points,
		Time:     r.Selection.Time.String(),
		Hours:    r.Selection.Time.Hours(),
		Bill:     NewBillJSON(r.Selection.Bill),
		Base: BaselineJSON{
			Time:  r.BaselineTime.String(),
			Hours: r.BaselineTime.Hours(),
			Bill:  NewBillJSON(r.BaselineBill),
		},
		Gains: ImprovementJSON{
			Time: r.TimeImprovement(),
			Cost: r.CostImprovement(),
		},
		Report: r.Render(),
	}
}

// ParetoPointJSON is the wire form of one frontier point.
type ParetoPointJSON struct {
	Alpha    float64     `json:"alpha"`
	Time     string      `json:"time"`
	Hours    float64     `json:"time_hours"`
	Cost     money.Money `json:"cost"`
	Views    int         `json:"views"`
	Degraded bool        `json:"degraded,omitempty"`
}

// ParetoJSON renders a frontier in wire form.
func ParetoJSON(front []ParetoPoint) []ParetoPointJSON {
	out := make([]ParetoPointJSON, len(front))
	for i, p := range front {
		out[i] = p.JSON()
	}
	return out
}

// JSON renders one frontier point in wire form.
func (p ParetoPoint) JSON() ParetoPointJSON {
	return ParetoPointJSON{
		Alpha:    p.Alpha,
		Time:     p.Time.String(),
		Hours:    p.Time.Hours(),
		Cost:     p.Cost,
		Views:    p.Views,
		Degraded: p.Degraded,
	}
}

// DatasetSizeOf reports the base cuboid volume a config implies — handy
// context for API responses.
func DatasetSizeOf(a *Advisor) units.DataSize {
	return a.Lat.NodeByID(0).Size
}
