package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmcloud/internal/loadgen"
	"vmcloud/internal/server"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("8:1:1")
	if err != nil || m.Advise != 8 || m.Compare != 1 || m.Sweep != 1 {
		t.Fatalf("parseMix(8:1:1) = %+v, %v", m, err)
	}
	for _, bad := range []string{"", "8:1", "a:b:c", "0:0:0", "-1:1:1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestRunInProcess runs a small in-process load, writes the snapshot,
// and immediately gates the same run against it — which must pass.
// The self-compare holds two real p95s to the 2× latency gate, and a miss
// is a few hundred microseconds, so the run is shaped to measure misses
// rather than the scheduler: 12000 requests (each endpoint's p95 rests
// on fifty-odd misses, not three), and two clients, because with more
// clients than cores the p95 is time spent queueing for a CPU, which
// differs several-fold between two runs of the same seed.
func TestRunInProcess(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "LOAD_test.json")

	var sb strings.Builder
	err := run([]string{
		"-seed", "11", "-requests", "12000", "-concurrency", "2",
		"-date", "2026-08-08", "-out", outPath,
	}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "endpoint") {
		t.Errorf("no table in output:\n%s", sb.String())
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Date != "2026-08-08" || rep.Requests != 12000 {
		t.Errorf("snapshot header: %+v", rep)
	}
	for _, ep := range []string{"advise", "compare", "sweep"} {
		e, ok := rep.Endpoints[ep]
		if !ok {
			t.Fatalf("snapshot missing %s", ep)
		}
		if e.HitAllocsPerRequest < 0 || e.HitAllocsPerRequest > 2 {
			t.Errorf("%s hit allocs %.1f outside [0,2]", ep, e.HitAllocsPerRequest)
		}
	}

	// Same seed and config against the just-written baseline must gate ok.
	sb.Reset()
	err = run([]string{
		"-seed", "11", "-requests", "12000", "-concurrency", "2",
		"-date", "2026-08-08", "-compare", outPath,
	}, &sb)
	if err != nil {
		t.Fatalf("self-compare gated: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "SLO gate: ok") {
		t.Errorf("no gate verdict:\n%s", sb.String())
	}
}

// TestCompareGateFails fabricates a regressed run and checks the gate
// exits with an error.
func TestCompareGateFails(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// Baseline with impossible numbers: any real run regresses vs it.
	if err := os.WriteFile(base, []byte(`{
  "date": "2026-01-01",
  "endpoints": {
    "advise": {"p95_ms": 0.000001, "hit_allocs_per_request": 0},
    "compare": {"p95_ms": 0.000001, "hit_allocs_per_request": 0},
    "sweep": {"p95_ms": 0.000001, "hit_allocs_per_request": 0}
  }
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{
		"-seed", "11", "-requests", "200", "-concurrency", "4", "-compare", base,
	}, &sb)
	if err == nil {
		t.Fatalf("gate passed against impossible baseline:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("error %v not a regression verdict", err)
	}
}

// TestRunTCP drives the tcp mode against an httptest server.
func TestRunTCP(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Options{}))
	defer ts.Close()

	var sb strings.Builder
	err := run([]string{
		"-mode", "tcp", "-addr", ts.URL,
		"-seed", "5", "-requests", "150", "-concurrency", "8",
	}, &sb)
	if err != nil {
		t.Fatalf("tcp run: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "0 errors") {
		t.Errorf("tcp run reported errors:\n%s", sb.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-mode", "warp"}, &sb); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mix", "1:2"}, &sb); err == nil {
		t.Error("bad mix accepted")
	}
	if err := run([]string{"-overload", "-mode", "tcp"}, &sb); err == nil {
		t.Error("-overload with -mode tcp accepted")
	}
	if err := run([]string{"-overload", "-compare", "x.json"}, &sb); err == nil {
		t.Error("-overload with -compare accepted")
	}
}

// TestRunOverload runs the overload scenario end to end through the CLI
// and checks every gate comes back ok: the sweep flood sheds, advise
// stays clean, and the run drains. This is the same run CI's overload
// smoke step performs via scripts/load.sh --overload.
func TestRunOverload(t *testing.T) {
	var sb strings.Builder
	// The advise bound is generous here because this test also runs
	// under the race detector, where cold solves are several times
	// slower; the CI smoke via scripts/load.sh uses the tight default.
	err := run([]string{"-overload", "-seed", "11", "-requests", "300", "-advise-p95", "10s"}, &sb)
	if err != nil {
		t.Fatalf("overload run gated: %v\n%s", err, sb.String())
	}
	outStr := sb.String()
	if !strings.Contains(outStr, "overload gate: ok") {
		t.Errorf("no gate verdict:\n%s", outStr)
	}
	if strings.Contains(outStr, "FAIL") {
		t.Errorf("gate verdicts contain FAIL:\n%s", outStr)
	}
	if !strings.Contains(outStr, "heavy shed:") {
		t.Errorf("no shed verdict line:\n%s", outStr)
	}
}
