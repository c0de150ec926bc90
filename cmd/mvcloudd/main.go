// Command mvcloudd is the advisory daemon: a long-running HTTP server
// exposing the view-materialization advisor as a JSON API, with a bounded
// cache over solved recommendations (the advisor is deterministic, so
// identical configurations are served from memory).
//
// Usage:
//
//	mvcloudd [-addr :8080] [-cache-size 512] [-cache-max-mb 64]
//	         [-request-timeout 30s] [-shutdown-grace 10s]
//	         [-debug-addr localhost:6060] [-slow-solve 0]
//	         [-cluster 0] [-cluster-seed 0]
//
// Endpoints:
//
//	POST /v1/advise   solve mv1/mv2/mv3 or sweep the pareto frontier
//	POST /v1/compare  fan the problem out across provider × instance ×
//	                  fleet configurations and rank the outcomes
//	POST /v1/sweep    re-price one objective across a tariff grid
//	POST /v1/t/{account}/advise|compare|sweep
//	                  the same three in a tenant's own cache namespace
//	GET  /v1/tariffs  the built-in provider catalog
//	GET  /v1/stats    serving and cache counters
//	GET  /v1/version  build/VCS stamp of the running binary
//	GET  /metrics     Prometheus text-format telemetry
//	GET  /healthz     liveness probe
//
// Example:
//
//	curl -s localhost:8080/v1/advise -d '{"scenario":"mv1","budget":25}'
//	curl -s localhost:8080/v1/compare -d '{"budget":25,"limit":"4h"}'
//
// -cluster N serves the fault-tolerant cluster mode in a single
// binary: a stateless frontend on -addr routing solves to N in-process
// workers by rendezvous hashing, with failover (a slow or silent worker
// is timed out per attempt, and three failed forwards eject it) and a
// shed when a key's every worker is down. -cluster-seed keys the ring
// (frontends sharing a worker tier must agree on it).
//
// Every serving flag sets the server.Options field it names; in cluster
// mode the frontend and every worker get the same Options.
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ — a separate socket, so production traffic on -addr can
// never reach the profiler. -slow-solve logs a structured line with the
// per-phase breakdown for every cold solve at least that slow.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -shutdown-grace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vmcloud/internal/server"
)

func main() {
	// flag.CommandLine exits on a bad flag, so parseFlags returns no
	// error here.
	o, _ := parseFlags(flag.CommandLine, os.Args[1:])
	o.logf = log.Printf
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "mvcloudd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr          string
	shutdownGrace time.Duration
	// debugAddr, when non-empty, starts a second listener serving
	// net/http/pprof — isolated from the API socket by construction.
	debugAddr string
	// server configures the single-node server, or in cluster mode the
	// frontend and every worker alike.
	server server.Options
	// clusterWorkers, when positive, serves single-binary cluster mode:
	// a frontend routing to this many in-process workers over the
	// in-memory transport; clusterSeed keys the rendezvous ring.
	clusterWorkers int
	clusterSeed    int64
	// ready, if non-nil, receives the bound address once listening —
	// lets tests use ":0" and discover the port.
	ready chan<- string
	// debugReady, if non-nil, receives the bound debug address.
	debugReady chan<- string
	logf       func(format string, args ...any)
}

// parseFlags binds every flag to the options field it sets and parses
// args; -cache-max-mb is read in megabytes and stored in bytes.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	so := &o.server
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&so.CacheSize, "cache-size", 512, "max memoized answers, and max remembered request spellings (negative disables)")
	fs.Int64Var(&so.CacheMaxBytes, "cache-max-mb", 64, "max resident megabytes per cache, of the two: answers and request spellings (negative unbounds)")
	fs.DurationVar(&so.RequestTimeout, "request-timeout", 30*time.Second, "per-request solve timeout")
	fs.DurationVar(&o.shutdownGrace, "shutdown-grace", 10*time.Second, "graceful shutdown drain window")
	fs.Int64Var(&so.MaxFactRows, "max-fact-rows", 0, "largest accepted fact_rows (0 = server default)")
	fs.IntVar(&so.MaxParetoSteps, "max-pareto-steps", 0, "largest accepted pareto sweep (0 = server default)")
	fs.IntVar(&so.MaxCompareConfigs, "max-compare-configs", 0, "largest accepted compare or sweep grid (0 = server default)")
	fs.IntVar(&so.AdviseWorkers, "advise-workers", 0, "concurrent advise solves admitted (0 = GOMAXPROCS)")
	fs.IntVar(&so.HeavyWorkers, "heavy-workers", 0, "concurrent compare/sweep solves admitted (0 = GOMAXPROCS)")
	fs.IntVar(&so.AdviseQueue, "advise-queue", 0, "advise solves queued beyond the workers before shedding 429 (0 = server default, negative = no queue)")
	fs.IntVar(&so.HeavyQueue, "heavy-queue", 0, "compare/sweep solves queued beyond the workers before shedding 429 (0 = server default, negative = no queue)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "pprof listen address (empty disables; use localhost:6060)")
	fs.DurationVar(&so.SlowSolveThreshold, "slow-solve", 0, "log cold solves at least this slow with their phase breakdown (0 disables)")
	fs.IntVar(&o.clusterWorkers, "cluster", 0, "run as a cluster frontend with this many in-process workers (0 = single-node)")
	fs.Int64Var(&o.clusterSeed, "cluster-seed", 0, "rendezvous ring seed (must agree across frontends sharing a worker tier)")
	err := fs.Parse(args)
	so.CacheMaxBytes <<= 20
	return o, err
}

// cluster is the single-binary cluster -cluster and -cluster-seed ask
// for: the frontend and every worker get the daemon's server Options.
func (o options) cluster() server.LocalClusterOptions {
	return server.LocalClusterOptions{
		Workers:  o.clusterWorkers,
		Frontend: o.server,
		Worker:   o.server,
		Seed:     o.clusterSeed,
	}
}

// run serves until ctx is cancelled, then drains gracefully.
func run(ctx context.Context, o options) error {
	if o.logf == nil {
		o.logf = func(string, ...any) {}
	}
	var api http.Handler
	if o.clusterWorkers > 0 {
		lc := server.NewLocalCluster(o.cluster())
		o.logf("mvcloudd cluster mode: frontend + %d in-process workers (ring seed %d)",
			o.clusterWorkers, o.clusterSeed)
		api = lc
	} else {
		api = server.New(o.server)
	}
	hs := &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		// WriteTimeout backstops the handler's own solve timeout.
		WriteTimeout: o.server.RequestTimeout + 10*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	o.logf("mvcloudd listening on %s (cache %d entries, request timeout %v)",
		ln.Addr(), o.server.CacheSize, o.server.RequestTimeout)
	if o.ready != nil {
		o.ready <- ln.Addr().String()
	}

	var ds *http.Server
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		ds = &http.Server{Handler: debugMux(), ReadHeaderTimeout: 5 * time.Second}
		o.logf("mvcloudd pprof on %s/debug/pprof/", dln.Addr())
		if o.debugReady != nil {
			o.debugReady <- dln.Addr().String()
		}
		go func() {
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				o.logf("mvcloudd debug server: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	o.logf("mvcloudd draining (grace %v)", o.shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.shutdownGrace)
	defer cancel()
	if ds != nil {
		ds.Shutdown(shutdownCtx)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// debugMux builds the pprof handler set explicitly rather than
// importing net/http/pprof for its DefaultServeMux side effect — the
// API mux must never inherit the profiler routes.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
