package main

import (
	"errors"
	"flag"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vmcloud/internal/server"
)

// fast keeps lattice math quick in every test run.
var fast = []string{"-rows", "10000000"}

func withFast(args ...string) []string { return append(args, fast...) }

func TestRunScenarios(t *testing.T) {
	for _, scenario := range []string{"mv1", "mv2", "mv3", "pareto"} {
		args := withFast("-scenario", scenario, "-steps", "5", "-queries", "5", "-invoice")
		if err := runAdviseArgs(args, io.Discard); err != nil {
			t.Errorf("%s: %v", scenario, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown scenario":      {"-scenario", "warp"},
		"bad budget":            {"-scenario", "mv1", "-budget", "not-money"},
		"bad duration":          {"-scenario", "mv2", "-limit", "not-a-duration"},
		"unknown provider":      {"-scenario", "mv1", "-provider", "nonexistent-cloud"},
		"oversized workload":    {"-scenario", "mv1", "-queries", "99"},
		"missing provider file": {"-scenario", "mv1", "-provider-file", "/nonexistent/tariff.json"},
		"unknown flag":          {"-warp-factor", "9"},
	} {
		if err := runAdviseArgs(withFast(args...), io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNaNAlpha: every command refuses -alpha NaN with the range error,
// so the process exits non-zero instead of answering.
func TestNaNAlpha(t *testing.T) {
	for name, c := range map[string]struct {
		run  func([]string, io.Writer) error
		args []string
	}{
		"advise":  {runAdviseArgs, []string{"-scenario", "mv3", "-alpha", "NaN"}},
		"compare": {runCompareArgs, []string{"-scenarios", "mv3", "-alpha", "NaN"}},
		"sweep":   {runSweepArgs, []string{"-scenario", "mv3", "-alpha", "NaN"}},
	} {
		err := c.run(withFast(c.args...), io.Discard)
		if err == nil || errors.Is(err, flag.ErrHelp) || !strings.Contains(err.Error(), "out of [0,1]") {
			t.Errorf("%s -alpha NaN: error %v, want alpha out of [0,1]", name, err)
		}
	}
}

func TestPrintTariffs(t *testing.T) {
	printTariffs(io.Discard) // must not panic
	if err := runAdviseArgs([]string{"-tariffs"}, io.Discard); err != nil {
		t.Error(err)
	}
}

func TestBuildCompareRequest(t *testing.T) {
	req, _, err := compareRequest([]string{"-budget", "25.00", "-limit", "4h", "-steps", "5",
		"-queries", "5", "-providers", "aws-2012, stratus", "-instances", "small,large",
		"-fleets", "3,5", "-rows", "10000000", "-break-even", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Providers, []string{"aws-2012", "stratus"}) {
		t.Errorf("providers = %v", req.Providers)
	}
	if !reflect.DeepEqual(req.InstanceTypes, []string{"small", "large"}) || !reflect.DeepEqual(req.FleetSizes, []int{3, 5}) {
		t.Errorf("grid = %v × %v", req.InstanceTypes, req.FleetSizes)
	}
	if req.BreakEvenSteps != -1 || req.Steps != 5 || req.FactRows != 10_000_000 || req.Queries != 5 {
		t.Errorf("request = %+v", req)
	}
}

func TestRunCompareArgs(t *testing.T) {
	args := withFast("-queries", "4", "-fleets", "5", "-budget", "25.00", "-limit", "4h", "-break-even", "3")
	if err := runCompareArgs(args, io.Discard); err != nil {
		t.Errorf("table output: %v", err)
	}
	if err := runCompareArgs(append(args, "-json"), io.Discard); err != nil {
		t.Errorf("json output: %v", err)
	}
}

// TestRunCompareArgsErrors holds both modes to the same flag parsing: a
// fleet size is a decimal integer whether the request is solved here or
// posted to -server.
func TestRunCompareArgsErrors(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	cases := map[string][]string{
		"unknown provider":      {"-providers", "atlantis"},
		"bad budget":            {"-budget", "not-money"},
		"bad limit":             {"-limit", "not-a-duration"},
		"bad fleet":             {"-fleets", "three"},
		"bad scenario":          {"-scenarios", "warp"},
		"unknown flag":          {"-warp-factor", "9"},
		"one break-even":        {"-break-even", "1"},
		"remote one break-even": {"-break-even", "1", "-server", ts.URL},
	}
	for _, f := range []string{"3.5", "5x", "0x10"} {
		cases["fleet "+f] = []string{"-fleets", f}
		cases["remote fleet "+f] = []string{"-fleets", f, "-server", ts.URL}
	}
	for name, args := range cases {
		if err := runCompareArgs(withFast(args...), io.Discard); err == nil {
			t.Errorf("compare %s: accepted", name)
		}
	}
	const oneStep = "compare: break-even needs at least 2 steps, got 1"
	if err := runCompareArgs(withFast("-break-even", "1"), io.Discard); err == nil || err.Error() != oneStep {
		t.Errorf("compare -break-even 1: %v, want %q", err, oneStep)
	}
	for _, f := range []string{"3.5", "5x", "0x10"} {
		for _, remote := range [][]string{nil, {"-server", ts.URL}} {
			args := withFast(append([]string{"-budget", "25.00", "-fleets", f}, remote...)...)
			if err := runSweepArgs(args, io.Discard); err == nil {
				t.Errorf("sweep %v: accepted", args)
			}
		}
	}
}

func TestRunSearchSolver(t *testing.T) {
	for _, scenario := range []string{"mv1", "mv2", "mv3", "pareto"} {
		args := withFast("-scenario", scenario, "-steps", "5", "-queries", "5", "-solver", "search", "-seed", "42")
		if err := runAdviseArgs(args, io.Discard); err != nil {
			t.Errorf("%s with -solver search: %v", scenario, err)
		}
	}
	if err := runAdviseArgs(withFast("-solver", "quantum"), io.Discard); err == nil {
		t.Error("unknown -solver accepted")
	}
}

func TestCompareRequestCarriesSolver(t *testing.T) {
	req, _, err := compareRequest(withFast("-solver", "search", "-seed", "7"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Solver != "search" || req.Seed != 7 {
		t.Fatalf("solver/seed = %q/%d, want search/7", req.Solver, req.Seed)
	}
	sreq, _, err := sweepRequest(withFast("-solver", "search", "-seed", "7"))
	if err != nil {
		t.Fatal(err)
	}
	if sreq.Solver != "search" || sreq.Seed != 7 {
		t.Fatalf("sweep solver/seed = %q/%d, want search/7", sreq.Solver, sreq.Seed)
	}
}
