// Command mvcloud is the view-materialization advisor CLI: given a
// workload size, a cloud tariff and one of the paper's three objectives,
// it prints the recommended view set and the itemized monthly bill.
//
// Usage:
//
//	mvcloud -scenario mv1 -budget 25.00 [-queries 10] [-provider aws-2012]
//	mvcloud -scenario mv2 -limit 4h
//	mvcloud -scenario mv3 -alpha 0.65
//	mvcloud -scenario pareto -steps 11
//	mvcloud -scenario mv1 -solver search -seed 42   # metaheuristic engine
//	mvcloud -scenario mv1 -provider-file tariff.json # a tariff in the pricing JSON format
//	mvcloud -tariffs            # print the built-in provider catalog
//
// The compare subcommand solves the same advisory problem on every
// provider in the catalog (or a chosen subset) and prints the ranked
// cross-provider comparison — cost/time matrix, per-scenario winners and
// budget break-even points:
//
//	mvcloud compare -budget 25.00 -limit 4h
//	mvcloud compare -providers aws-2012,stratus -fleets 3,5 -json
//
// The sweep subcommand re-prices a single objective across a tariff grid
// (providers × instance types × fleet sizes) and prints every cell's
// decomposed bill plus the winning configuration — the raw cross-tariff
// study under the comparison:
//
//	mvcloud sweep -scenario mv1 -budget 25.00 -fleets 1,3,5,8
//	mvcloud sweep -scenario mv3 -alpha 0.65 -providers aws-2012,stratus -json
//
// Every command reads its flags into the request mvcloudd's endpoint
// takes (/v1/advise, /v1/compare, /v1/sweep) and answers it through the
// same Normalize and Resolve steps the daemon does, so a local answer
// and a served one cannot drift apart. -server differs only in
// transport: the request is posted to a running mvcloudd instead, with
// overload sheds (429 + Retry-After) and transient failures retried with
// jittered backoff under a retry budget (see internal/client), and the
// daemon's JSON printed — the bytes -json prints locally:
//
//	mvcloud -server http://localhost:8080 -scenario mv1 -budget 25.00
//	mvcloud compare -server http://localhost:8080 -budget 25.00
//	mvcloud sweep -server http://localhost:8080 -scenario mv1 -budget 25.00
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vmcloud/internal/compare"
	"vmcloud/internal/core"
	"vmcloud/internal/costmodel"
	"vmcloud/internal/money"
	"vmcloud/internal/pricing"
	"vmcloud/internal/report"
	"vmcloud/internal/server"
)

func main() {
	name, run, args := "mvcloud", runAdviseArgs, os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			name, run, args = "mvcloud compare", runCompareArgs, args[1:]
		case "sweep":
			name, run, args = "mvcloud sweep", runSweepArgs, args[1:]
		}
	}
	if err := run(args, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

func printTariffs(out io.Writer) {
	for _, name := range pricing.ProviderNames() {
		p, _ := pricing.Lookup(name)
		for _, t := range server.TariffTables(p) {
			fmt.Fprintln(out, t)
		}
	}
}

// runAdviseArgs parses and runs the advise command, mvcloud without a
// subcommand.
func runAdviseArgs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mvcloud", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "mv1", "mv1 (budget), mv2 (deadline), mv3 (tradeoff) or pareto")
		budgetStr = fs.String("budget", "25.00", "MV1 budget in dollars")
		limit     = fs.String("limit", "4h", "MV2 response-time limit (Go duration)")
		alpha     = fs.Float64("alpha", 0.5, "MV3 weight on time (0..1)")
		steps     = fs.Int("steps", 11, "pareto sweep steps")
		queries   = fs.Int("queries", 10, "sales workload size (1..10)")
		freq      = fs.Int("freq", 30, "executions of each query per month")
		provider  = fs.String("provider", "aws-2012", "tariff name (see -tariffs)")
		provFile  = fs.String("provider-file", "", "read the tariff from a JSON file instead of -provider")
		instance  = fs.String("instance", "small", "instance type")
		fleet     = fs.Int("fleet", 5, "number of instances")
		rows      = fs.Int64("rows", 200_000_000, "fact table rows (≈size/50B)")
		solver    = fs.String("solver", "knapsack", "optimization engine: knapsack, search or auto")
		seed      = fs.Int64("seed", 0, "search solver seed (identical seeds reproduce identical selections)")
		tariffs   = fs.Bool("tariffs", false, "print the provider catalog and exit")
		invoice   = fs.Bool("invoice", false, "print an itemized invoice for the recommendation")
		serverURL = fs.String("server", "", "base URL of a running mvcloudd; POST /v1/advise there (with shed-aware retries) instead of solving in-process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tariffs {
		printTariffs(out)
		return nil
	}
	budget, err := money.Parse(*budgetStr)
	if err != nil {
		return err
	}
	req := server.AdviseRequest{
		Scenario: *scenario, Budget: &budget, Limit: *limit, Alpha: alpha, Steps: *steps,
		ConfigJSON: core.ConfigJSON{
			Provider: *provider, InstanceType: *instance, Instances: *fleet, FactRows: *rows,
			Queries: *queries, Frequency: *freq, Solver: *solver, Seed: *seed,
		},
	}
	if *provFile != "" {
		if req.ProviderSpec, err = os.ReadFile(*provFile); err != nil {
			return err
		}
	}
	if *serverURL != "" {
		return post(*serverURL, *seed, "/v1/advise", &req, out)
	}

	if err := req.Normalize(); err != nil {
		return err
	}
	cfg, err := req.Resolve()
	if err != nil {
		return err
	}
	adv, err := core.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cluster: %s   workload: %d queries × %d/month   candidates: %d   solver: %s\n\n",
		adv.Cl, *queries, *freq, len(adv.Candidates), adv.Solver)
	rec, front, err := req.Advise(adv)
	if err != nil {
		return err
	}
	if front != nil {
		t := report.NewTable("time/cost Pareto frontier", "α", "workload time", "monthly bill", "views")
		for _, p := range front {
			t.AddRow(fmt.Sprintf("%.2f", p.Alpha), fmt.Sprintf("%.3fh", p.Time.Hours()), p.Cost, p.Views)
		}
		fmt.Fprintln(out, t)
		return nil
	}
	fmt.Fprint(out, rec.Render())
	if *invoice {
		fmt.Fprintln(out, "\nitemized invoice:")
		fmt.Fprint(out, costmodel.Itemize(adv.PlanFor(rec.Selection), rec.Selection.Bill))
	}
	return nil
}

// runCompareArgs parses and runs the compare subcommand.
func runCompareArgs(args []string, out io.Writer) error {
	req, g, err := compareRequest(args)
	if err != nil {
		return err
	}
	if g.server != "" {
		return post(g.server, g.seed, "/v1/compare", &req, out)
	}
	if err := req.Normalize(); err != nil {
		return err
	}
	creq, err := req.Resolve()
	if err != nil {
		return err
	}
	comp, err := compare.Run(creq)
	if err != nil {
		return err
	}
	return g.print(out, comp)
}

// compareRequest reads the compare flags into the /v1/compare request.
func compareRequest(args []string) (compare.RequestJSON, gridFlags, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	var (
		scenarios = fs.String("scenarios", "", "comma-separated subset of mv1,mv2,mv3,pareto (default: derived from -budget/-limit)")
		budgetStr = fs.String("budget", "25.00", "MV1 budget in dollars")
		limit     = fs.String("limit", "4h", "MV2 response-time limit (Go duration)")
		alpha     = fs.Float64("alpha", 0.5, "MV3 weight on time (0..1)")
		steps     = fs.Int("steps", 11, "pareto sweep steps per configuration")
		breakEven = fs.Int("break-even", 8, "budget sweep resolution (negative disables)")
		g         gridFlags
	)
	g.register(fs, "comparison", "/v1/compare")
	if err := fs.Parse(args); err != nil {
		return compare.RequestJSON{}, g, err
	}
	budget, err := money.Parse(*budgetStr)
	if err != nil {
		return compare.RequestJSON{}, g, err
	}
	req := compare.RequestJSON{
		Scenarios: splitList(*scenarios), Budget: &budget, Limit: *limit, Alpha: alpha,
		Steps: *steps, BreakEvenSteps: *breakEven,
	}
	req.Providers, req.InstanceTypes, req.FleetSizes, req.ConfigJSON, err = g.grid()
	return req, g, err
}

// runSweepArgs parses and runs the sweep subcommand.
func runSweepArgs(args []string, out io.Writer) error {
	req, g, err := sweepRequest(args)
	if err != nil {
		return err
	}
	if g.server != "" {
		return post(g.server, g.seed, "/v1/sweep", &req, out)
	}
	if err := req.Normalize(); err != nil {
		return err
	}
	sreq, err := req.Resolve()
	if err != nil {
		return err
	}
	sw, err := compare.RunSweep(sreq)
	if err != nil {
		return err
	}
	return g.print(out, sw)
}

// sweepRequest reads the sweep flags into the /v1/sweep request.
func sweepRequest(args []string) (compare.SweepRequestJSON, gridFlags, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "", "objective to sweep: mv1, mv2 or mv3 (default: derived from -budget/-limit)")
		budgetStr = fs.String("budget", "", "MV1 budget in dollars")
		limit     = fs.String("limit", "", "MV2 response-time limit (Go duration)")
		alpha     = fs.Float64("alpha", 0.5, "MV3 weight on time (0..1)")
		g         gridFlags
	)
	g.register(fs, "sweep", "/v1/sweep")
	if err := fs.Parse(args); err != nil {
		return compare.SweepRequestJSON{}, g, err
	}
	req := compare.SweepRequestJSON{Scenario: *scenario, Limit: *limit, Alpha: alpha}
	if *budgetStr != "" {
		budget, err := money.Parse(*budgetStr)
		if err != nil {
			return compare.SweepRequestJSON{}, g, err
		}
		req.Budget = &budget
	}
	var err error
	req.Providers, req.InstanceTypes, req.FleetSizes, req.ConfigJSON, err = g.grid()
	return req, g, err
}

// gridFlags are the flags compare and sweep share: the workload, the
// engine, the tariff grid, and how the answer is had and printed.
type gridFlags struct {
	queries, freq                int
	rows, seed                   int64
	providers, instances, fleets string
	solver, server               string
	asJSON                       bool
}

// register defines g's flags on fs for the command that answers a
// request with a result (what -json names) at path.
func (g *gridFlags) register(fs *flag.FlagSet, result, path string) {
	fs.IntVar(&g.queries, "queries", 10, "sales workload size (1..10)")
	fs.IntVar(&g.freq, "freq", 30, "executions of each query per month")
	fs.StringVar(&g.providers, "providers", "", "comma-separated tariff names (default: the full catalog)")
	fs.StringVar(&g.instances, "instances", "small", "comma-separated instance types to try")
	fs.StringVar(&g.fleets, "fleets", "5", "comma-separated cluster sizes to try")
	fs.Int64Var(&g.rows, "rows", 200_000_000, "fact table rows (≈size/50B)")
	fs.StringVar(&g.solver, "solver", "knapsack", "optimization engine: knapsack, search or auto")
	fs.Int64Var(&g.seed, "seed", 0, "search solver seed")
	fs.BoolVar(&g.asJSON, "json", false, "print the "+result+" in the "+path+" wire format")
	fs.StringVar(&g.server, "server", "", "base URL of a running mvcloudd; POST "+path+" there instead of solving in-process")
}

// grid reads the tariff-grid lists and the shared problem fields of a
// compare or sweep request. A fleet size is a decimal integer, in either
// mode.
func (g *gridFlags) grid() (providers, instances []string, fleets []int, cj core.ConfigJSON, err error) {
	for _, f := range splitList(g.fleets) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, nil, nil, cj, fmt.Errorf("bad fleet size %q: %v", f, err)
		}
		fleets = append(fleets, n)
	}
	cj = core.ConfigJSON{FactRows: g.rows, Queries: g.queries, Frequency: g.freq, Solver: g.solver, Seed: g.seed}
	return splitList(g.providers), splitList(g.instances), fleets, cj, nil
}

// print writes a locally solved comparison or sweep: its report, or with
// -json its wire body indented exactly as -server prints the daemon's.
func (g *gridFlags) print(out io.Writer, r interface {
	Render() string
	AppendJSON([]byte) ([]byte, error)
}) error {
	if !g.asJSON {
		_, err := io.WriteString(out, r.Render())
		return err
	}
	body, err := r.AppendJSON(nil)
	if err != nil {
		return err
	}
	return printJSON(out, body)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
