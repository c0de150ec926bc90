package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/money"
	"vmcloud/internal/views"
	"vmcloud/internal/workload"
)

func TestConfigJSONDefaults(t *testing.T) {
	var cj ConfigJSON
	if err := cj.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cj.Provider != "aws-2012" || cj.InstanceType != "small" || cj.Instances != 5 {
		t.Errorf("cluster defaults: %+v", cj)
	}
	if cj.FactRows != 200_000_000 || cj.Months != 1 {
		t.Errorf("dataset defaults: %+v", cj)
	}
	if cj.CandidateBudget != 8 || cj.MaintenanceRuns != 4 || cj.UpdateRatio != 0.20 {
		t.Errorf("advisor defaults: %+v", cj)
	}
	if cj.MaintenancePolicy != "immediate" || cj.JobOverhead != "2m0s" {
		t.Errorf("policy defaults: %+v", cj)
	}
	if len(cj.Workload) != 10 {
		t.Errorf("workload defaulted to %d queries", len(cj.Workload))
	}
	if cj.Workload[0].Frequency != 1 || len(cj.Workload[0].Levels) != 2 {
		t.Errorf("first query: %+v", cj.Workload[0])
	}
}

// TestDefaultJobOverheadText pins the wire default's constant spelling
// to the duration it stands for, so Normalize writes without formatting
// exactly what formatting would write.
func TestDefaultJobOverheadText(t *testing.T) {
	if got := DefaultJobOverhead.String(); got != defaultJobOverheadText {
		t.Errorf("DefaultJobOverhead.String() = %q, the wire default is %q", got, defaultJobOverheadText)
	}
}

// TestConfigJSONCanonical checks the property the serving cache depends
// on: equivalent spellings normalize to identical structs.
func TestConfigJSONCanonical(t *testing.T) {
	spellings := []string{
		`{}`,
		`{"provider":"aws-2012","instances":5}`,
		`{"queries":10,"frequency":1,"job_overhead":"120s"}`,
		`{"maintenance_policy":"immediate","update_ratio":0.2}`,
	}
	var want []byte
	for i, s := range spellings {
		var cj ConfigJSON
		if err := json.Unmarshal([]byte(s), &cj); err != nil {
			t.Fatal(err)
		}
		if err := cj.Normalize(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		got, err := json.Marshal(cj)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("spelling %d diverged:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func TestConfigJSONNormalizeErrors(t *testing.T) {
	cases := map[string]ConfigJSON{
		"unknown provider":     {Provider: "vaporware"},
		"bad provider spec":    {ProviderSpec: json.RawMessage(`{"name":""}`)},
		"negative fleet":       {Instances: -1},
		"negative rows":        {FactRows: -5},
		"negative months":      {Months: -1},
		"bad policy":           {MaintenancePolicy: "psychic"},
		"bad overhead":         {JobOverhead: "a while"},
		"negative overhead":    {JobOverhead: "-2m"},
		"oversized sales":      {Queries: 99},
		"negative frequency":   {Frequency: -3},
		"workload bad levels":  {Workload: []workload.QueryJSON{{Levels: []string{"eon", "country"}}}},
		"workload empty query": {Workload: []workload.QueryJSON{{Name: "mystery"}}},
	}
	for name, cj := range cases {
		if err := cj.Normalize(); err == nil {
			t.Errorf("%s: accepted: %+v", name, cj)
		}
	}
}

func TestConfigJSONToConfig(t *testing.T) {
	var cj ConfigJSON
	if err := json.Unmarshal([]byte(`{
		"provider":"stratus","instance_type":"large","instances":3,
		"fact_rows":10000000,"months":2,"queries":5,"frequency":30,
		"maintenance_policy":"deferred","job_overhead":"90s"
	}`), &cj); err != nil {
		t.Fatal(err)
	}
	cfg, err := cj.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Provider.Name != "stratus" || cfg.InstanceType != "large" || cfg.Instances != 3 {
		t.Errorf("cluster config: %+v", cfg)
	}
	if cfg.MaintenancePolicy != views.DeferredMaintenance {
		t.Error("policy not deferred")
	}
	if cfg.JobOverhead != 90*time.Second {
		t.Errorf("overhead = %v", cfg.JobOverhead)
	}
	if len(cfg.Workload.Queries) != 5 || cfg.Workload.Queries[0].Frequency != 30 {
		t.Errorf("workload: %+v", cfg.Workload)
	}
	// The resolved config must actually wire an advisor.
	adv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Candidates) == 0 {
		t.Error("no candidates generated")
	}
}

func TestRecommendationJSON(t *testing.T) {
	adv := salesAdvisor(t, 5)
	rec, err := adv.AdviseBudget(money.FromDollars(50))
	if err != nil {
		t.Fatal(err)
	}
	rj := rec.JSON()
	if rj.Scenario != rec.Scenario || rj.Feasible != rec.Selection.Feasible {
		t.Errorf("header fields: %+v", rj)
	}
	if len(rj.Views) != len(rj.Points) {
		t.Errorf("views/points mismatch: %v vs %v", rj.Views, rj.Points)
	}
	if rj.Bill.Total != rec.Selection.Bill.Total() {
		t.Errorf("bill total %v != %v", rj.Bill.Total, rec.Selection.Bill.Total())
	}
	if rj.Bill.Compute != rec.Selection.Bill.Compute.Total() {
		t.Errorf("compute %v != %v", rj.Bill.Compute, rec.Selection.Bill.Compute.Total())
	}
	if !strings.Contains(rj.Report, "materialize:") {
		t.Errorf("report: %s", rj.Report)
	}
	b, err := json.Marshal(rj)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"scenario"`, `"bill"`, `"baseline"`, `"improvement"`, `"total":"$`} {
		if !strings.Contains(string(b), field) {
			t.Errorf("wire missing %s:\n%s", field, b)
		}
	}
}

func TestParetoJSON(t *testing.T) {
	adv := salesAdvisor(t, 5)
	front, err := adv.ParetoFront(5)
	if err != nil {
		t.Fatal(err)
	}
	wire := ParetoJSON(front)
	if len(wire) != len(front) {
		t.Fatalf("len %d != %d", len(wire), len(front))
	}
	for i := range wire {
		if wire[i].Cost != front[i].Cost || wire[i].Views != front[i].Views {
			t.Errorf("point %d: %+v vs %+v", i, wire[i], front[i])
		}
		if _, err := time.ParseDuration(wire[i].Time); err != nil {
			t.Errorf("point %d time %q: %v", i, wire[i].Time, err)
		}
	}
}

func TestDatasetSizeOf(t *testing.T) {
	adv := salesAdvisor(t, 5)
	if DatasetSizeOf(adv) <= 0 {
		t.Error("dataset size not positive")
	}
}

func TestConfigJSONModelGuards(t *testing.T) {
	cases := map[string]ConfigJSON{
		"negative update ratio":     {UpdateRatio: -0.5},
		"update ratio above one":    {UpdateRatio: 1.5},
		"negative maintenance runs": {MaintenanceRuns: -3},
		"negative candidate budget": {CandidateBudget: -1},
	}
	for name, cj := range cases {
		if err := cj.Normalize(); err == nil {
			t.Errorf("%s: accepted: %+v", name, cj)
		}
	}
}
