package compare

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"vmcloud/internal/money"
)

// FuzzSweepRequestNormalize hammers the /v1/sweep wire-request
// canonicalization the server's memoization keys are built from,
// mirroring the ConfigJSON fuzz. The contract: arbitrary JSON never
// panics; whatever Normalize accepts must (a) re-normalize to a fixed
// point, (b) resolve into a runnable SweepRequest, (c) canonicalize
// order- and duplicate-insensitively over the grid lists — two
// spellings of the same sweep must marshal to identical cache keys —
// (d) keep genuinely different grids on different keys: growing the
// fleet grid must change the canonical form, never collide, and (e)
// mean what the key says: the resolved native request normalizes to the
// key's own α, budget, limit and grid lists.
func FuzzSweepRequestNormalize(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"budget":25}`,
		`{"budget":25,"fleet_sizes":[3,5]}`,
		`{"budget":25,"fleet_sizes":[5,3,3]}`,
		`{"limit":"4h","providers":["aws-2012","stratus"]}`,
		`{"scenario":"mv3","alpha":0.25,"instance_types":["small","large"]}`,
		`{"scenario":"mv2","limit":"90m","queries":5,"fact_rows":10000000}`,
		`{"scenario":"pareto"}`,
		`{"budget":25,"provider":"aws-2012"}`,
		`{"budget":25,"fleet_sizes":[0]}`,
		`{"budget":25,"fleet_sizes":[-3]}`,
		`{"budget":-1}`,
		`{"budget":25,"limit":"4h"}`,
		`{"alpha":2}`,
		`{"budget":25,"providers":["nonesuch"]}`,
		`{"budget":25,"instance_types":["small"],"solver":"search","seed":9}`,
		`{"budget":25,"workload":[{"levels":["year","country"],"frequency":30}]}`,
		`{"scenario":"mv3","alpha":0}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rj SweepRequestJSON
		if err := json.Unmarshal(data, &rj); err != nil {
			return // not JSON at all — the decoder rejects it upstream
		}
		if err := rj.Normalize(); err != nil {
			return // rejected inputs just need to not panic
		}
		first, err := json.Marshal(rj)
		if err != nil {
			t.Fatalf("normalized sweep does not marshal: %v", err)
		}
		if err := rj.Normalize(); err != nil {
			t.Fatalf("re-normalizing an accepted sweep failed: %v\ninput: %s", err, data)
		}
		second, err := json.Marshal(rj)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Normalize is not a fixed point:\nfirst:  %s\nsecond: %s\ninput: %s", first, second, data)
		}
		req, err := rj.Resolve()
		if err != nil {
			t.Fatalf("accepted sweep failed to resolve: %v\ninput: %s", err, data)
		}
		checkResolvedSweep(t, rj, req, data)

		// Equal sweeps, different spelling: re-decode the original input
		// and scramble the grid lists (reverse order, duplicate the first
		// element). The canonical form — and therefore the cache key —
		// must come out identical.
		var scrambled SweepRequestJSON
		if err := json.Unmarshal(data, &scrambled); err != nil {
			t.Fatalf("re-decoding accepted input failed: %v", err)
		}
		reverse(scrambled.Providers)
		reverse(scrambled.InstanceTypes)
		reverseInts(scrambled.FleetSizes)
		if len(scrambled.FleetSizes) > 0 {
			scrambled.FleetSizes = append(scrambled.FleetSizes, scrambled.FleetSizes[0])
		}
		if len(scrambled.Providers) > 0 {
			scrambled.Providers = append(scrambled.Providers, scrambled.Providers[0])
		}
		if err := scrambled.Normalize(); err != nil {
			t.Fatalf("scrambled spelling of an accepted sweep was rejected: %v\ninput: %s", err, data)
		}
		scrambledKey, err := json.Marshal(scrambled)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, scrambledKey) {
			t.Fatalf("equal sweeps produced different cache keys:\ncanonical: %s\nscrambled: %s\ninput: %s", first, scrambledKey, data)
		}

		// Unequal grids must not collide: a strictly larger fleet grid is
		// a different sweep and must canonicalize to a different key.
		if rj.FleetSizes[len(rj.FleetSizes)-1] > 1<<30 {
			return // +1 below would overflow into an invalid size
		}
		grown := rj
		grown.FleetSizes = append(append([]int(nil), rj.FleetSizes...), rj.FleetSizes[len(rj.FleetSizes)-1]+1)
		if err := grown.Normalize(); err != nil {
			t.Fatalf("grown grid rejected: %v", err)
		}
		grownKey, err := json.Marshal(grown)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(first, grownKey) {
			t.Fatalf("different grids collided on one cache key: %s\ninput: %s", first, data)
		}
	})
}

// checkResolvedSweep is property (e): the native request resolved from
// a canonical key normalizes to that key's own parameters and grid.
func checkResolvedSweep(t *testing.T, rj SweepRequestJSON, req SweepRequest, data []byte) {
	t.Helper()
	n, scenario, err := req.normalize()
	if err != nil {
		t.Fatalf("resolved sweep failed to normalize: %v\ninput: %s", err, data)
	}
	if scenario != rj.Scenario {
		t.Errorf("scenario %q, key says %q\ninput: %s", scenario, rj.Scenario, data)
	}
	if rj.Alpha != nil && n.alpha != *rj.Alpha {
		t.Errorf("α %g, key says %g\ninput: %s", n.alpha, *rj.Alpha, data)
	}
	var budget money.Money
	if rj.Budget != nil {
		budget = *rj.Budget
	}
	if n.Budget != budget {
		t.Errorf("budget %v, key says %v\ninput: %s", n.Budget, budget, data)
	}
	if limit := n.Limit.String(); (rj.Limit != "" || n.Limit != 0) && limit != rj.Limit {
		t.Errorf("limit %s, key says %q\ninput: %s", limit, rj.Limit, data)
	}
	names := make([]string, len(n.Providers))
	for i, p := range n.Providers {
		names[i] = p.Name
	}
	if !slices.Equal(names, rj.Providers) || !slices.Equal(n.InstanceTypes, rj.InstanceTypes) || !slices.Equal(n.FleetSizes, rj.FleetSizes) {
		t.Errorf("grid %v × %v × %v, key says %v × %v × %v\ninput: %s",
			names, n.InstanceTypes, n.FleetSizes, rj.Providers, rj.InstanceTypes, rj.FleetSizes, data)
	}
}

func reverse(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
