package compare

import (
	"strconv"

	"vmcloud/internal/jsondec"
	"vmcloud/internal/jsonenc"
	"vmcloud/internal/money"
)

// The request codecs of /v1/compare and /v1/sweep: DecodeJSON reads a
// body (or a canonical key, which is a normalized body) in jsondec's
// fast grammar exactly as encoding/json reads it through the struct
// tags, and AppendKey writes the canonical key exactly as encoding/json
// writes the normalized struct — byte for byte, so keys, ring placement
// and forwarded bodies are what they were under json.Marshal. See
// core.ConfigJSON's codec for the embedded members and for what happens
// to a member added to a struct and not here.

// DecodeJSON fills rj from d; the caller checks d.End and d.OK.
//
//mvlint:hotpath
func (rj *RequestJSON) DecodeJSON(d *jsondec.Decoder) {
	var seen, config uint32
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); key {
		case "scenarios":
			d.Once(&seen, 0)
			rj.Scenarios = d.Strings()
		case "budget":
			d.Once(&seen, 1)
			b := money.DecodeJSON(d)
			rj.Budget = &b
		case "limit":
			d.Once(&seen, 2)
			rj.Limit = d.String()
		case "alpha":
			d.Once(&seen, 3)
			a := d.Float()
			rj.Alpha = &a
		case "steps":
			d.Once(&seen, 4)
			rj.Steps = d.Int()
		case "providers":
			d.Once(&seen, 5)
			rj.Providers = d.Strings()
		case "instance_types":
			d.Once(&seen, 6)
			rj.InstanceTypes = d.Strings()
		case "fleet_sizes":
			d.Once(&seen, 7)
			rj.FleetSizes = d.Ints()
		case "break_even_steps":
			d.Once(&seen, 8)
			rj.BreakEvenSteps = d.Int()
		default:
			rj.ConfigJSON.DecodeMember(d, key, &config)
		}
	}
}

// AppendKey appends what encoding/json writes for rj.
//
//mvlint:hotpath
func (rj *RequestJSON) AppendKey(dst []byte) ([]byte, error) {
	mark := len(dst)
	if len(rj.Scenarios) > 0 {
		dst = append(dst, `,"scenarios":`...)
		dst = jsonenc.AppendStrings(dst, rj.Scenarios)
	}
	dst, err := appendParams(dst, rj.Budget, rj.Limit, rj.Alpha)
	if err != nil {
		return dst, err
	}
	if rj.Steps != 0 {
		dst = append(dst, `,"steps":`...)
		dst = strconv.AppendInt(dst, int64(rj.Steps), 10)
	}
	dst = appendGrid(dst, rj.Providers, rj.InstanceTypes, rj.FleetSizes)
	if rj.BreakEvenSteps != 0 {
		dst = append(dst, `,"break_even_steps":`...)
		dst = strconv.AppendInt(dst, int64(rj.BreakEvenSteps), 10)
	}
	if dst, err = rj.ConfigJSON.AppendKeyMembers(dst); err != nil {
		return dst, err
	}
	return jsonenc.EndObject(dst, mark), nil
}

// DecodeJSON fills rj from d; the caller checks d.End and d.OK.
//
//mvlint:hotpath
func (rj *SweepRequestJSON) DecodeJSON(d *jsondec.Decoder) {
	var seen, config uint32
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); key {
		case "scenario":
			d.Once(&seen, 0)
			rj.Scenario = d.String()
		case "budget":
			d.Once(&seen, 1)
			b := money.DecodeJSON(d)
			rj.Budget = &b
		case "limit":
			d.Once(&seen, 2)
			rj.Limit = d.String()
		case "alpha":
			d.Once(&seen, 3)
			a := d.Float()
			rj.Alpha = &a
		case "providers":
			d.Once(&seen, 4)
			rj.Providers = d.Strings()
		case "instance_types":
			d.Once(&seen, 5)
			rj.InstanceTypes = d.Strings()
		case "fleet_sizes":
			d.Once(&seen, 6)
			rj.FleetSizes = d.Ints()
		default:
			rj.ConfigJSON.DecodeMember(d, key, &config)
		}
	}
}

// AppendKey appends what encoding/json writes for rj.
//
//mvlint:hotpath
func (rj *SweepRequestJSON) AppendKey(dst []byte) ([]byte, error) {
	mark := len(dst)
	if rj.Scenario != "" {
		dst = append(dst, `,"scenario":`...)
		dst = jsonenc.AppendString(dst, rj.Scenario)
	}
	dst, err := appendParams(dst, rj.Budget, rj.Limit, rj.Alpha)
	if err != nil {
		return dst, err
	}
	dst = appendGrid(dst, rj.Providers, rj.InstanceTypes, rj.FleetSizes)
	if dst, err = rj.ConfigJSON.AppendKeyMembers(dst); err != nil {
		return dst, err
	}
	return jsonenc.EndObject(dst, mark), nil
}

// appendParams appends the scenario parameters both request forms
// carry, in their shared member order.
//
//mvlint:hotpath
func appendParams(dst []byte, budget *money.Money, limit string, alpha *float64) ([]byte, error) {
	if budget != nil {
		dst = append(dst, `,"budget":`...)
		dst = budget.AppendJSON(dst)
	}
	if limit != "" {
		dst = append(dst, `,"limit":`...)
		dst = jsonenc.AppendString(dst, limit)
	}
	if alpha != nil {
		dst = append(dst, `,"alpha":`...)
		return jsonenc.AppendFloat(dst, *alpha)
	}
	return dst, nil
}

// appendGrid appends the grid lists both request forms carry.
//
//mvlint:hotpath
func appendGrid(dst []byte, providers, instanceTypes []string, fleetSizes []int) []byte {
	if len(providers) > 0 {
		dst = append(dst, `,"providers":`...)
		dst = jsonenc.AppendStrings(dst, providers)
	}
	if len(instanceTypes) > 0 {
		dst = append(dst, `,"instance_types":`...)
		dst = jsonenc.AppendStrings(dst, instanceTypes)
	}
	if len(fleetSizes) > 0 {
		dst = append(dst, `,"fleet_sizes":`...)
		dst = jsonenc.AppendInts(dst, fleetSizes)
	}
	return dst
}
