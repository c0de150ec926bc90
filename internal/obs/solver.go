package obs

// Solver-side instruments. These live on the Default registry because
// the optimizer/search packages have no server instance to hang series
// off — a process has one solver engine, however many servers wrap it.
//
// The counters are deliberately coarse-grained: NewComparisonKernel and
// RepriceFor increment once per build/rebind (cheap relative to the work they
// count), while the inner-loop quantities — incremental-evaluator moves
// and search evaluations — are accumulated in plain solver-local fields
// and flushed here once per solve, so the gated search benchmarks never
// pay a per-move atomic.
var (
	// KernelBuilds counts tariff-independent comparison-kernel
	// constructions (one per distinct workload shape).
	KernelBuilds = Default.Counter("mvcloud_solver_kernel_builds_total",
		"Comparison kernel constructions (one per distinct workload shape).")

	// KernelRebinds counts tariff bindings of an existing kernel
	// (RepriceFor, the one binding), the structure-sharing fast path.
	KernelRebinds = Default.Counter("mvcloud_solver_kernel_rebinds_total",
		"Tariff bindings of an existing comparison kernel (RepriceFor fast path).")

	// IncrementalMoves counts incremental-evaluator Add/Drop moves,
	// flushed once per search solve.
	IncrementalMoves = Default.Counter("mvcloud_solver_incremental_moves_total",
		"Incremental evaluator Add/Drop moves across all search solves.")

	// SearchEvals counts objective evaluations across all search solves,
	// flushed once per solve.
	SearchEvals = Default.Counter("mvcloud_solver_search_evals_total",
		"Objective evaluations across all local-search solves.")

	// DPStates counts the pareto states the knapsack / min-cost-cover DP
	// built, added once per solve: solver work in problem-size units.
	DPStates = Default.Counter("mvcloud_solver_dp_states_total",
		"Pareto frontier states built by the knapsack and min-cost-cover DP, added once per solve.")

	// DPFrontiers counts the knapsack and min-cost-cover solves that
	// built a prefix frontier; DPAllFit the knapsack solves that did not
	// need one, because every item fit the capacity at once.
	DPFrontiers = Default.Counter("mvcloud_solver_dp_frontiers_total",
		"Knapsack and min-cost-cover DP solves that built a prefix frontier.")
	DPAllFit = Default.Counter("mvcloud_solver_dp_all_fit_total",
		"Knapsack DP solves answered without a frontier: every item fit the capacity.")

	// PricingMoves counts the Add/Drop moves a Section 5 session's engine
	// made to reach the subsets it priced, added once per subset.
	PricingMoves = Default.Counter("mvcloud_solver_pricing_moves_total",
		"Incremental evaluator Add/Drop moves made to price the Section 5 solvers' picks.")
)
