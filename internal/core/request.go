package core

import (
	"encoding/json"
	"strconv"

	"vmcloud/internal/jsondec"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/workload"
)

// The request codec. ConfigJSON is embedded in every request type of the
// memoized endpoints, so its members are read and written as members of
// the embedding object: DecodeMember is one case of the embedder's
// DecodeJSON switch, AppendKeyMembers one stretch of its AppendKey.
// Both follow the struct tags above — encoding/json over those tags is
// what they are tested against, and what reads a body the fast grammar
// declines — so a member added to the struct and not here is declined
// (slow, counted, still right) on the way in and caught by
// TestAppendKeyMatchesReflection on the way out.

// DecodeMember reads the value of member key into cj when key names one
// of its members, and declines otherwise. seen is the embedder's
// duplicate mask for these members; see jsondec.Decoder.Once.
//
//mvlint:hotpath
func (cj *ConfigJSON) DecodeMember(d *jsondec.Decoder, key string, seen *uint32) {
	switch key {
	case "provider":
		d.Once(seen, 0)
		cj.Provider = d.String()
	case "provider_spec":
		d.Once(seen, 1)
		cj.ProviderSpec = json.RawMessage(d.Raw())
	case "instance_type":
		d.Once(seen, 2)
		cj.InstanceType = d.String()
	case "instances":
		d.Once(seen, 3)
		cj.Instances = d.Int()
	case "fact_rows":
		d.Once(seen, 4)
		cj.FactRows = d.Int64()
	case "months":
		d.Once(seen, 5)
		cj.Months = d.Float()
	case "queries":
		d.Once(seen, 6)
		cj.Queries = d.Int()
	case "frequency":
		d.Once(seen, 7)
		cj.Frequency = d.Int()
	case "workload":
		d.Once(seen, 8)
		cj.Workload = make([]workload.QueryJSON, 0, 10)
		for more := d.Array(); more; more = d.More(']') {
			var q workload.QueryJSON
			q.DecodeJSON(d)
			cj.Workload = append(cj.Workload, q)
		}
	case "candidate_budget":
		d.Once(seen, 9)
		cj.CandidateBudget = d.Int()
	case "maintenance_runs":
		d.Once(seen, 10)
		cj.MaintenanceRuns = d.Int()
	case "update_ratio":
		d.Once(seen, 11)
		cj.UpdateRatio = d.Float()
	case "maintenance_policy":
		d.Once(seen, 12)
		cj.MaintenancePolicy = d.String()
	case "job_overhead":
		d.Once(seen, 13)
		cj.JobOverhead = d.String()
	case "solver":
		d.Once(seen, 14)
		cj.Solver = d.String()
	case "seed":
		d.Once(seen, 15)
		cj.Seed = d.Int64()
	default:
		d.Decline()
	}
}

// AppendKeyMembers appends cj's members, each with a leading comma, as
// encoding/json writes them inside the embedding object (see
// jsonenc.EndObject).
//
//mvlint:hotpath
func (cj *ConfigJSON) AppendKeyMembers(dst []byte) ([]byte, error) {
	var err error
	if cj.Provider != "" {
		dst = append(dst, `,"provider":`...)
		dst = jsonenc.AppendString(dst, cj.Provider)
	}
	if len(cj.ProviderSpec) > 0 {
		dst = append(dst, `,"provider_spec":`...)
		dst = jsonenc.AppendCompact(dst, cj.ProviderSpec)
	}
	if cj.InstanceType != "" {
		dst = append(dst, `,"instance_type":`...)
		dst = jsonenc.AppendString(dst, cj.InstanceType)
	}
	if cj.Instances != 0 {
		dst = append(dst, `,"instances":`...)
		dst = strconv.AppendInt(dst, int64(cj.Instances), 10)
	}
	if cj.FactRows != 0 {
		dst = append(dst, `,"fact_rows":`...)
		dst = strconv.AppendInt(dst, cj.FactRows, 10)
	}
	if cj.Months != 0 {
		dst = append(dst, `,"months":`...)
		if dst, err = jsonenc.AppendFloat(dst, cj.Months); err != nil {
			return dst, err
		}
	}
	if cj.Queries != 0 {
		dst = append(dst, `,"queries":`...)
		dst = strconv.AppendInt(dst, int64(cj.Queries), 10)
	}
	if cj.Frequency != 0 {
		dst = append(dst, `,"frequency":`...)
		dst = strconv.AppendInt(dst, int64(cj.Frequency), 10)
	}
	if len(cj.Workload) > 0 {
		dst = append(dst, `,"workload":`...)
		if dst, err = jsonenc.AppendArray(dst, cj.Workload); err != nil {
			return dst, err
		}
	}
	if cj.CandidateBudget != 0 {
		dst = append(dst, `,"candidate_budget":`...)
		dst = strconv.AppendInt(dst, int64(cj.CandidateBudget), 10)
	}
	if cj.MaintenanceRuns != 0 {
		dst = append(dst, `,"maintenance_runs":`...)
		dst = strconv.AppendInt(dst, int64(cj.MaintenanceRuns), 10)
	}
	if cj.UpdateRatio != 0 {
		dst = append(dst, `,"update_ratio":`...)
		if dst, err = jsonenc.AppendFloat(dst, cj.UpdateRatio); err != nil {
			return dst, err
		}
	}
	if cj.MaintenancePolicy != "" {
		dst = append(dst, `,"maintenance_policy":`...)
		dst = jsonenc.AppendString(dst, cj.MaintenancePolicy)
	}
	if cj.JobOverhead != "" {
		dst = append(dst, `,"job_overhead":`...)
		dst = jsonenc.AppendString(dst, cj.JobOverhead)
	}
	if cj.Solver != "" {
		dst = append(dst, `,"solver":`...)
		dst = jsonenc.AppendString(dst, cj.Solver)
	}
	if cj.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendInt(dst, cj.Seed, 10)
	}
	return dst, nil
}
