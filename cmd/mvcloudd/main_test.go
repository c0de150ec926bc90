package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vmcloud/internal/obs"
	"vmcloud/internal/server"
)

// TestServeAndShutdown boots the daemon on an ephemeral port, exercises
// the API over real TCP, then checks graceful shutdown.
func TestServeAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr: "127.0.0.1:0", shutdownGrace: 5 * time.Second,
			server: server.Options{CacheSize: 32, RequestTimeout: 30 * time.Second},
			ready:  ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %s", code, body)
	}
	post := func() (*http.Response, string) {
		resp, err := http.Post(base+"/v1/advise", "application/json",
			strings.NewReader(`{"scenario":"mv1","budget":25,"fact_rows":10000000,"queries":5}`))
		if err != nil {
			t.Fatalf("POST advise: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}
	if resp, body := post(); resp.StatusCode != 200 || !strings.Contains(body, `"recommendation"`) {
		t.Fatalf("advise: %d %s", resp.StatusCode, body)
	}
	if resp, _ := post(); resp.Header.Get("X-Cache") != "hit" {
		t.Error("repeated advise did not hit the cache")
	}
	if code, body := get("/v1/tariffs"); code != 200 || !strings.Contains(body, "aws-2012") {
		t.Fatalf("tariffs: %d %s", code, body)
	}
	if code, body := get("/v1/stats"); code != 200 || !strings.Contains(body, `"cache_hits":1`) {
		t.Fatalf("stats: %d %s", code, body)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}

// TestDaemonTelemetry boots the daemon with the pprof listener and the
// slow-solve log enabled and exercises the whole observability surface
// over real TCP: /metrics validates against the exposition contract,
// /v1/version reports the build stamp, ?debug=phases returns the
// per-phase breakdown, the profiler answers on its own socket, and —
// critically — the API socket does NOT serve /debug/pprof/.
func TestDaemonTelemetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	debugReady := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr: "127.0.0.1:0", debugAddr: "127.0.0.1:0", shutdownGrace: 5 * time.Second,
			server: server.Options{
				CacheSize: 32, RequestTimeout: 30 * time.Second,
				SlowSolveThreshold: time.Nanosecond, // every cold solve logs
			},
			ready: ready, debugReady: debugReady,
		})
	}()
	var base, debugBase string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	select {
	case addr := <-debugReady:
		debugBase = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("debug listener never became ready")
	}

	body := `{"scenario":"mv1","budget":25,"fact_rows":10000000,"queries":5}`
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/advise?debug=phases", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST advise: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != want {
			t.Fatalf("request %d: status %d, X-Cache %q", i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if phases := resp.Header.Get("X-Solve-Phases"); (want == "miss") != (phases != "") {
			t.Errorf("request %d (%s): X-Solve-Phases = %q", i, want, phases)
		} else if want == "miss" && !strings.Contains(phases, "total=") {
			t.Errorf("phase header missing total: %q", phases)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	samples, err := obs.ValidateText(payload)
	if err != nil {
		t.Fatalf("invalid exposition over TCP: %v", err)
	}
	var sawHit bool
	for _, s := range samples {
		if s.Name == "mvcloud_http_requests_total" && s.Label("endpoint") == "advise" &&
			s.Label("outcome") == "hit" && s.Value == 1 {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("hit outcome not visible in scraped metrics")
	}

	resp, err = http.Get(base + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(vbody), `"go_version"`) {
		t.Errorf("version: %d %s", resp.StatusCode, vbody)
	}

	// The profiler lives on the debug socket only.
	resp, err = http.Get(debugBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("debug pprof index: %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("API socket serves /debug/pprof/ — profiler leaked onto the serving mux")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}

// TestRunBadAddr checks the listen-failure path.
func TestRunBadAddr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, options{addr: "256.0.0.1:bogus", shutdownGrace: time.Second}); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestLogf covers the default no-op logger wiring.
func TestLogf(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var logged []string
	go func() {
		errc <- run(ctx, options{
			addr: "127.0.0.1:0", shutdownGrace: time.Second, ready: ready,
			logf: func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			},
		})
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(logged) < 2 || !strings.Contains(logged[0], "listening") {
		t.Errorf("log lines: %q", logged)
	}
}

// TestServeClusterMode boots the single-binary cluster daemon
// (-cluster 3) on an ephemeral port and exercises the fault-tolerant
// frontend over real TCP: forwarded solves carry X-Worker, repeats hit
// the frontend cache, tenant-scoped routes work end to end, and
// /v1/stats exposes the routing plane.
func TestServeClusterMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, options{
			addr: "127.0.0.1:0", shutdownGrace: 5 * time.Second,
			server:         server.Options{CacheSize: 32, RequestTimeout: 30 * time.Second},
			clusterWorkers: 3, clusterSeed: 42,
			ready: ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	body := `{"scenario":"mv1","budget":25,"fact_rows":10000000,"queries":5}`
	post := func(path string) *http.Response {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	resp := post("/v1/advise")
	if resp.StatusCode != 200 {
		t.Fatalf("advise: %d", resp.StatusCode)
	}
	if w := resp.Header.Get("X-Worker"); !strings.HasPrefix(w, "worker-") {
		t.Errorf("X-Worker = %q, want a ring worker on the forwarded miss", w)
	}
	if resp := post("/v1/advise"); resp.Header.Get("X-Cache") != "hit" {
		t.Error("repeat did not hit the frontend cache")
	}
	// The tenant namespace is disjoint: same body, fresh forward.
	if resp := post("/v1/t/acme/advise"); resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("tenant-scoped request: X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}

	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	for _, want := range []string{`"cluster"`, `"worker-0"`, `"worker-2"`, `"tenants"`, `"acme":1`} {
		if !strings.Contains(string(sbody), want) {
			t.Errorf("/v1/stats missing %s: %s", want, sbody)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}

// TestParseFlags parses one line that sets every flag to a value no
// other flag gets, and holds each to the field it names: a flag bound to
// the wrong field, or a field left out, changes the parsed value. No
// flags at all must give the daemon's documented defaults.
func TestParseFlags(t *testing.T) {
	fs := flag.NewFlagSet("mvcloudd", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{
		"-addr", "127.0.0.1:9001", "-cache-size", "11", "-cache-max-mb", "12",
		"-request-timeout", "13s", "-shutdown-grace", "14s", "-max-fact-rows", "15",
		"-max-pareto-steps", "16", "-max-compare-configs", "17", "-advise-workers", "18",
		"-heavy-workers", "19", "-advise-queue", "20", "-heavy-queue", "-21",
		"-debug-addr", "127.0.0.1:9002", "-slow-solve", "22ms", "-cluster", "5",
		"-cluster-seed", "23",
	})
	if err != nil {
		t.Fatal(err)
	}
	set, all := 0, 0
	fs.Visit(func(*flag.Flag) { set++ })
	fs.VisitAll(func(*flag.Flag) { all++ })
	if set != all {
		t.Fatalf("the line sets %d of %d flags", set, all)
	}
	want := server.Options{
		CacheSize:          11,
		CacheMaxBytes:      12 << 20,
		RequestTimeout:     13 * time.Second,
		MaxFactRows:        15,
		MaxParetoSteps:     16,
		MaxCompareConfigs:  17,
		AdviseWorkers:      18,
		HeavyWorkers:       19,
		AdviseQueue:        20,
		HeavyQueue:         -21,
		SlowSolveThreshold: 22 * time.Millisecond,
	}
	if o.server != want {
		t.Errorf("server options\n got %+v\nwant %+v", o.server, want)
	}
	if o.addr != "127.0.0.1:9001" || o.shutdownGrace != 14*time.Second || o.debugAddr != "127.0.0.1:9002" {
		t.Errorf("addr %q, shutdown grace %v, debug addr %q", o.addr, o.shutdownGrace, o.debugAddr)
	}
	wantCluster := server.LocalClusterOptions{Workers: 5, Frontend: want, Worker: want, Seed: 23}
	if got := o.cluster(); got != wantCluster {
		t.Errorf("cluster options\n got %+v\nwant %+v", got, wantCluster)
	}

	d, err := parseFlags(flag.NewFlagSet("mvcloudd", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDefaults := server.Options{CacheSize: 512, CacheMaxBytes: 64 << 20, RequestTimeout: 30 * time.Second}
	if d.server != wantDefaults || d.addr != ":8080" || d.shutdownGrace != 10*time.Second ||
		d.debugAddr != "" || d.clusterWorkers != 0 || d.clusterSeed != 0 {
		t.Errorf("defaults: %+v", d)
	}
}
