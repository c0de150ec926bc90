// Command mvcloudbench is the fleet-scale load harness for the advisory
// daemon: it synthesizes deterministic multi-tenant advise/compare/sweep
// traffic, drives the real serving stack — in-process by default, or over
// TCP against a running mvcloudd — and reports per-endpoint latency
// percentiles, throughput and cache-hit allocations as a machine-readable
// LOAD_<date>.json snapshot.
//
// Usage:
//
//	mvcloudbench [-seed 1] [-tenants 4] [-schemas 2] [-requests 5000]
//	             [-concurrency 64] [-hit-ratio 0.9] [-mix 8:1:1]
//	             [-mode inprocess|tcp] [-addr http://localhost:8080]
//	             [-out LOAD_2026-08-08.json] [-date 2026-08-08]
//	             [-compare LOAD_baseline.json]
//	             [-overload] [-advise-p95 2s]
//	             [-cluster 0] [-cluster-kill -1]
//
// Modes:
//
//	inprocess  build the handler stack in this process (no network); the
//	           numbers isolate the serving layer and include the
//	           cache-hit allocs/request probe
//	tcp        POST over HTTP to -addr; full network stack, no alloc probe
//
// With -compare, the fresh run is diffed against the committed baseline
// under the SLO gate (p95 may not more than double; hit-path allocations
// may not grow past baseline×1.5+2) and the exit status is non-zero on
// regression.
//
// With -overload, the harness instead runs the overload scenario: an
// in-process server whose heavy class (compare/sweep) has one worker and
// no queue, plus injected per-solve latency, flooded with a sweep-heavy
// mix (2:1:8 unless -mix is given). The run then gates the overload
// contract — zero hard errors, the heavy flood visibly shed with 429s,
// the cheap advise class untouched by the shedding and its p95 under
// -advise-p95, and zero solve goroutines left after drain — and exits
// non-zero on any violation.
//
// With -cluster N, the harness runs the cluster chaos scenario: an
// in-process frontend + N-worker fleet (rendezvous sharding, health
// checks, failover) under load while -cluster-kill workers (default
// N-1 — all but one) are killed mid-run. The gate is the fault-
// tolerance contract: zero hard errors (every response a success,
// degraded, stale serve, or 429+Retry-After), full outcome accounting,
// and zero solve goroutines left anywhere in the topology after drain.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"vmcloud/internal/loadgen"
	"vmcloud/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mvcloudbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mvcloudbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		seed        = fs.Int64("seed", 1, "traffic synthesis seed")
		tenants     = fs.Int("tenants", 4, "distinct tenant parameter families")
		schemas     = fs.Int("schemas", 2, "distinct schema variants per tenant")
		requests    = fs.Int("requests", 5000, "total request count")
		concurrency = fs.Int("concurrency", 64, "concurrent clients")
		hitRatio    = fs.Float64("hit-ratio", 0.9, "target cache-hit ratio in [0,1)")
		mixFlag     = fs.String("mix", "8:1:1", "advise:compare:sweep weights")
		mode        = fs.String("mode", "inprocess", "inprocess or tcp")
		addr        = fs.String("addr", "http://localhost:8080", "base URL for -mode tcp")
		outPath     = fs.String("out", "", "write LOAD json snapshot to this path")
		date        = fs.String("date", time.Now().UTC().Format("2006-01-02"), "date stamped into the snapshot")
		comparePath = fs.String("compare", "", "diff against this baseline LOAD json and gate")
		overload    = fs.Bool("overload", false, "run the overload scenario and gate the shedding contract")
		adviseP95   = fs.Duration("advise-p95", 2*time.Second, "advise p95 bound for the -overload gate")
		cluster     = fs.Int("cluster", 0, "run the cluster chaos scenario with this many in-process workers")
		clusterKill = fs.Int("cluster-kill", -1, "workers killed mid-run in -cluster mode (-1 = all but one)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *cluster > 0 {
		if *mode != "inprocess" {
			return fmt.Errorf("-cluster requires -mode inprocess (the topology is built in this process)")
		}
		if *overload || *comparePath != "" {
			return fmt.Errorf("-cluster is mutually exclusive with -overload and -compare")
		}
		if !set["requests"] {
			*requests = 600
		}
		if !set["concurrency"] {
			*concurrency = 16
		}
		if !set["hit-ratio"] {
			*hitRatio = 0.3
		}
	}

	if *overload {
		if *mode != "inprocess" {
			return fmt.Errorf("-overload requires -mode inprocess (it configures the server and checks solve-goroutine drain)")
		}
		if *comparePath != "" {
			return fmt.Errorf("-overload and -compare are mutually exclusive (overload snapshots are not SLO baselines)")
		}
		// The scenario wants a sweep flood hitting mostly-fresh bodies;
		// honor explicit flags, flip only the defaults.
		if !set["mix"] {
			*mixFlag = "2:1:8"
		}
		if !set["hit-ratio"] {
			*hitRatio = 0.3
		}
		if !set["requests"] {
			*requests = 600
		}
		if !set["concurrency"] {
			*concurrency = 16
		}
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	cfg := loadgen.Config{
		Seed:        *seed,
		Tenants:     *tenants,
		Schemas:     *schemas,
		Requests:    *requests,
		Concurrency: *concurrency,
		HitRatio:    *hitRatio,
		Mix:         mix,
	}

	var target loadgen.Target
	var srv *server.Server
	var lc *server.LocalCluster
	switch *mode {
	case "inprocess":
		if *cluster > 0 {
			lc = server.NewLocalCluster(server.LocalClusterOptions{
				Workers:  *cluster,
				Frontend: server.Options{RequestTimeout: time.Minute},
				Worker:   server.Options{RequestTimeout: time.Minute},
				Cluster: server.ClusterOptions{
					Seed:           *seed,
					HealthInterval: 20 * time.Millisecond,
				},
			})
			defer lc.Close()
			target = loadgen.NewHandlerTarget(lc)
			break
		}
		opts := server.Options{}
		if *overload {
			// One heavy worker, no heavy queue, and 50ms of injected
			// latency per solve: the sweep flood piles onto a class that
			// can't absorb it, so admission control must shed. Advise
			// keeps its own pool and must not feel any of it.
			opts = server.Options{
				RequestTimeout: time.Minute,
				HeavyWorkers:   1,
				HeavyQueue:     -1,
				Chaos: &server.ChaosConfig{
					Seed:        *seed,
					LatencyProb: 1,
					Latency:     50 * time.Millisecond,
				},
			}
		}
		srv = server.New(opts)
		target = loadgen.NewHandlerTarget(srv)
	case "tcp":
		target = &loadgen.HTTPTarget{
			BaseURL: *addr,
			Client: &http.Client{
				Timeout: 2 * time.Minute,
				Transport: &http.Transport{
					MaxIdleConns:        *concurrency,
					MaxIdleConnsPerHost: *concurrency,
				},
			},
		}
	default:
		return fmt.Errorf("unknown -mode %q (want inprocess or tcp)", *mode)
	}

	if lc != nil {
		// Kill the victims once the run is underway: in-flight forwards
		// observe connection resets and fail over; later requests find
		// the corpses ejected by the health loop.
		kill := *clusterKill
		if kill < 0 {
			kill = *cluster - 1
		}
		if kill >= *cluster {
			kill = *cluster - 1
		}
		victims := lc.WorkerIDs()[:kill]
		go func() {
			time.Sleep(150 * time.Millisecond)
			for _, id := range victims {
				lc.KillWorker(id)
			}
		}()
		fmt.Fprintf(out, "cluster scenario: %d workers, killing %d mid-run\n", *cluster, kill)
	}

	res, err := loadgen.Run(cfg, target)
	if err != nil {
		return err
	}
	rep := res.Snapshot(*date)
	fmt.Fprint(out, rep.Render())

	if *outPath != "" {
		data, err := rep.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}

	if *overload {
		return gateOverload(out, res, srv, *adviseP95)
	}
	if lc != nil {
		return gateCluster(out, res, lc)
	}

	if *comparePath != "" {
		data, err := os.ReadFile(*comparePath)
		if err != nil {
			return err
		}
		baseline, err := loadgen.ParseReport(data)
		if err != nil {
			return err
		}
		rows, regressions := loadgen.Compare(baseline, rep, loadgen.Gate{})
		fmt.Fprintf(out, "\nvs %s (%s):\n", *comparePath, baseline.Date)
		for _, row := range rows {
			fmt.Fprintln(out, " ", row)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(out, "REGRESSION:", r)
			}
			return fmt.Errorf("%d SLO regression(s)", len(regressions))
		}
		fmt.Fprintln(out, "SLO gate: ok")
	}
	return nil
}

// gateOverload checks the overload contract against a finished run and
// the in-process server it ran on, printing the verdicts and returning
// an error (non-zero exit) when any gate fails.
func gateOverload(out io.Writer, res *loadgen.Result, srv *server.Server, adviseBound time.Duration) error {
	var heavyShed, degraded, stale int
	for _, ep := range []string{"compare", "sweep"} {
		heavyShed += res.Endpoints[ep].Shed
	}
	for _, st := range res.Endpoints {
		degraded += st.Degraded
		stale += st.Stale
	}
	adv := res.Endpoints["advise"]

	var fails []string
	check := func(ok bool, format string, a ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			fails = append(fails, fmt.Sprintf(format, a...))
		}
		fmt.Fprintf(out, "  %s %s\n", verdict, fmt.Sprintf(format, a...))
	}

	fmt.Fprintf(out, "\noverload gates (shed=%d degraded=%d stale=%d):\n", heavyShed, degraded, stale)
	check(res.Errors == 0, "hard errors: %d (want 0; sheds are 429s, not errors)", res.Errors)
	check(heavyShed > 0, "heavy shed: %d (want > 0; the flood must visibly shed)", heavyShed)
	check(adv.Requests > 0, "advise requests: %d (want > 0; mix must exercise the cheap class)", adv.Requests)
	check(adv.Shed == 0, "advise shed: %d (want 0; cheap class must not feel heavy overload)", adv.Shed)
	check(adv.Latency.P95 <= adviseBound, "advise p95: %v (bound %v)", adv.Latency.P95, adviseBound)

	drained := true
	deadline := time.Now().Add(10 * time.Second)
	for srv.InflightSolves() != 0 {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	check(drained, "solve goroutines after drain: %d (want 0 within 10s)", srv.InflightSolves())

	if len(fails) > 0 {
		return fmt.Errorf("overload gate: %d violation(s)", len(fails))
	}
	fmt.Fprintln(out, "overload gate: ok")
	return nil
}

// gateCluster checks the fault-tolerance contract after a cluster
// chaos run: no response was anything but a success, degraded answer,
// stale serve, or 429; and the whole topology drained.
func gateCluster(out io.Writer, res *loadgen.Result, lc *server.LocalCluster) error {
	var served, shed, degraded, stale int
	for _, st := range res.Endpoints {
		served += st.Hits + st.Misses + st.Coalesced
		shed += st.Shed
		degraded += st.Degraded
		stale += st.Stale
	}

	var fails []string
	check := func(ok bool, format string, a ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			fails = append(fails, fmt.Sprintf(format, a...))
		}
		fmt.Fprintf(out, "  %s %s\n", verdict, fmt.Sprintf(format, a...))
	}

	fmt.Fprintf(out, "\ncluster gates (served=%d shed=%d degraded=%d stale=%d):\n", served, shed, degraded, stale)
	check(res.Errors == 0, "hard errors: %d (want 0; every response success/degraded/stale/429)", res.Errors)
	check(served > 0, "served: %d (want > 0; the survivors must carry the ring)", served)
	check(served+shed == res.Total, "accounting: served %d + shed %d vs total %d", served, shed, res.Total)

	drained := true
	deadline := time.Now().Add(10 * time.Second)
	for lc.InflightSolves() != 0 {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	check(drained, "solve goroutines after drain: %d (want 0 within 10s)", lc.InflightSolves())

	if len(fails) > 0 {
		return fmt.Errorf("cluster gate: %d violation(s)", len(fails))
	}
	fmt.Fprintln(out, "cluster gate: ok")
	return nil
}

// parseMix reads "a:c:s" integer weights.
func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &m.Advise, &m.Compare, &m.Sweep); err != nil {
		return m, fmt.Errorf("bad -mix %q (want a:c:s, e.g. 8:1:1): %v", s, err)
	}
	if m.Advise < 0 || m.Compare < 0 || m.Sweep < 0 || m.Advise+m.Compare+m.Sweep == 0 {
		return m, fmt.Errorf("bad -mix %q: weights must be non-negative and not all zero", s)
	}
	return m, nil
}
