package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vmcloud/internal/server"
)

// TestRemoteAdvise drives the -server path against a real daemon
// handler over TCP and checks the wire response comes back whole.
func TestRemoteAdvise(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()

	var sb strings.Builder
	if err := runAdviseArgs(withFast("-server", ts.URL, "-queries", "3", "-freq", "10"), &sb); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Scenario       string          `json:"scenario"`
		Recommendation json.RawMessage `json:"recommendation"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &resp); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, sb.String())
	}
	if resp.Scenario != "mv1" || len(resp.Recommendation) == 0 {
		t.Fatalf("thin response: %s", sb.String())
	}
}

// TestRemoteCompareAndSweep drives the two subcommand remote paths.
func TestRemoteCompareAndSweep(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()

	var sb strings.Builder
	err := runCompareArgs(withFast("-server", ts.URL, "-steps", "3", "-queries", "3", "-freq", "10",
		"-providers", "aws-2012", "-break-even", "-1"), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"results"`) || !strings.Contains(sb.String(), `"recommendation"`) {
		t.Errorf("compare response unrecognized:\n%.400s", sb.String())
	}

	sb.Reset()
	err = runSweepArgs(withFast("-server", ts.URL, "-scenario", "mv1", "-budget", "25.00", "-queries", "3",
		"-freq", "10", "-providers", "aws-2012", "-fleets", "3,5"), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"cells"`) || !strings.Contains(sb.String(), `"best"`) {
		t.Errorf("sweep response unrecognized:\n%.400s", sb.String())
	}
}

// TestRemoteAdviseRetriesShed fronts the daemon with a proxy that
// sheds the first attempt exactly as admission control does (429 +
// Retry-After) and checks the CLI's client retries through to the
// answer instead of surfacing the shed.
func TestRemoteAdviseRetriesShed(t *testing.T) {
	daemon := server.New(server.Options{})
	attempts := 0
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: solve queue full, retry later", http.StatusTooManyRequests)
			return
		}
		daemon.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	var sb strings.Builder
	if err := runAdviseArgs(withFast("-server", proxy.URL, "-queries", "3", "-freq", "10"), &sb); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("%d attempts, want 2 (shed then success)", attempts)
	}
	if !strings.Contains(sb.String(), `"recommendation"`) {
		t.Errorf("no recommendation after retry:\n%.400s", sb.String())
	}
}

// TestLocalRemoteParity holds the two modes to one answer: for each flag
// set, compare and sweep print the same bytes with -json solved here as
// with -server, and an advise recommendation's report is the text the
// local run prints under its headline.
func TestLocalRemoteParity(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()
	run := func(f func([]string, io.Writer) error, args []string) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := f(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return buf.Bytes()
	}
	grids := []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}{
		{"compare defaults", runCompareArgs, []string{"-queries", "4", "-fleets", "3,5", "-providers", "aws-2012,stratus"}},
		{"compare every scenario", runCompareArgs, []string{"-scenarios", "mv1,mv2,mv3,pareto", "-steps", "4",
			"-providers", "nimbus,cumulus", "-instances", "small,large", "-fleets", "2", "-break-even", "-1", "-budget", "12.50"}},
		{"compare search", runCompareArgs, []string{"-scenarios", "mv1,mv3", "-alpha", "0.3", "-solver", "search", "-seed", "7",
			"-providers", "aws-2012", "-fleets", "4,6", "-break-even", "4", "-queries", "6", "-freq", "12"}},
		{"compare skipped cells", runCompareArgs, []string{"-limit", "9h", "-providers", "stratus,nimbus",
			"-instances", "micro,xlarge", "-fleets", "1,4"}},
		{"sweep mv1", runSweepArgs, []string{"-scenario", "mv1", "-budget", "25.00", "-fleets", "3,5"}},
		{"sweep mv3", runSweepArgs, []string{"-scenario", "mv3", "-alpha", "0.65", "-providers", "aws-2012,stratus",
			"-instances", "small,large", "-fleets", "2,8", "-queries", "6"}},
		{"sweep mv2 search", runSweepArgs, []string{"-scenario", "mv2", "-limit", "11h", "-solver", "search", "-seed", "42",
			"-providers", "nimbus", "-fleets", "5"}},
		{"sweep derived", runSweepArgs, []string{"-budget", "10", "-providers", "cumulus,stratus",
			"-instances", "micro,xlarge", "-fleets", "4", "-freq", "50"}},
	}
	for _, c := range grids {
		args := withFast(append(c.args, "-json")...)
		local := run(c.run, args)
		remote := run(c.run, append(args, "-server", ts.URL))
		if !bytes.Equal(local, remote) {
			t.Errorf("%s: local -json and -server differ:\nlocal:\n%.600s\nremote:\n%.600s", c.name, local, remote)
		}
	}

	advise := [][]string{
		{"-scenario", "mv1", "-budget", "25.00"},
		{"-scenario", "mv1", "-budget", "4.00", "-provider", "stratus", "-fleet", "3", "-queries", "7"},
		{"-scenario", "mv2", "-limit", "10h30m", "-provider", "nimbus", "-instance", "large", "-fleet", "2"},
		{"-scenario", "mv3", "-alpha", "0.8", "-solver", "search", "-seed", "11"},
		{"-scenario", "mv2", "-limit", "12h", "-provider-file", "testdata/handmade_tariff.json", "-freq", "45"},
	}
	for _, args := range advise {
		args = withFast(args...)
		local := string(run(runAdviseArgs, args))
		_, text, ok := strings.Cut(local, "\n\n")
		if !ok {
			t.Fatalf("%v: no headline in\n%s", args, local)
		}
		var resp struct {
			Recommendation struct {
				Report string `json:"report"`
			} `json:"recommendation"`
		}
		if err := json.Unmarshal(run(runAdviseArgs, append(args, "-server", ts.URL)), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Recommendation.Report != text {
			t.Errorf("%v: the served report differs from the local text:\nlocal:\n%s\nremote:\n%s", args, text, resp.Recommendation.Report)
		}
	}
}
