// Package determinism bans wall-clock reads, unseeded randomness,
// order-sensitive map iteration and goroutines in the solver packages
// whose byte-exact output the repo's goldens pin.
//
// Every recommendation, golden response and committed experiment table
// depends on internal/{optimizer,search,compare,lattice,core} being
// pure functions of (request, seed) — and the cluster routing plane
// depends on internal/shard the same way: the rendezvous ring must
// route a key identically on every frontend, and the health tracker is
// a pure state machine fed explicit clocks (time.Now inside it would
// make detector transitions unreproducible in tests). Identical inputs
// must produce identical bytes: the canonical memoization keys,
// the seeded-search determinism tests and the cross-provider
// equivalence suites all assume identical inputs produce identical
// bytes. The bill those solvers minimize is computed in
// internal/{money,costmodel,pricing,units,cluster}, so the same contract
// holds there. The three ways that property has historically rotted in
// codebases like this are time.Now creeping into a cost term, the
// global math/rand source (seeded per-process, shared across
// goroutines), and map iteration feeding anything ordered — output
// rows, cache keys, candidate lists. A fourth is kept out by
// construction: a solver that starts no goroutine cannot make its answer
// depend on scheduling, and the daemon gets its parallelism from
// concurrent requests instead.
//
// Contract enforced per package in scope:
//
//   - no calls to time.Now;
//   - no package-level math/rand or math/rand/v2 functions (they draw
//     from the unseeded global source) — construct an explicit
//     rand.New(rand.NewSource(seed));
//   - a range over a map may only aggregate order-insensitively:
//     assignments, scalar accumulation and delete/len/cap/min/max are
//     fine, but any other call (append included), send or return inside
//     the loop is flagged — collect keys, sort, then iterate instead;
//   - a float product may not reach an add or subtract unrounded: as an
//     operand of + or -, as the right side of += or -=, or through a
//     local assigned from it. The spec lets an implementation fuse
//     x*y + z into one multiply-add, "possibly across statements", and
//     arm64, ppc64le, s390x and riscv64 do, so a near-tie could resolve
//     differently there than on amd64. An explicit conversion,
//     float64(x*y) + z, forces the rounding (scripts/nofma.sh checks the
//     compiled result);
//   - no go statements: work runs on the caller's goroutine.
//
// Intentional exceptions carry
// //mvlint:allow determinism -- <reason> on the flagged line.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"vmcloud/internal/analysis"
)

// Analyzer is the determinism invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "bans time.Now, unseeded math/rand, order-sensitive map iteration, fusable float products and go statements in solver packages",
	Scope: []string{
		"internal/optimizer",
		"internal/search",
		"internal/compare",
		"internal/lattice",
		"internal/core",
		"internal/shard",
		"internal/money",
		"internal/costmodel",
		"internal/pricing",
		"internal/units",
		"internal/cluster",
	},
	Run: run,
}

// seededConstructors are the math/rand entry points that build an
// explicitly seeded generator rather than drawing from the global
// source.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		products := productLocals(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "a go statement makes solver work depend on scheduling; run it on the caller's goroutine")
			case *ast.BinaryExpr:
				if (n.Op == token.ADD || n.Op == token.SUB) && isFloat(pass, n) {
					checkAddend(pass, products, n.X, n.Op)
					checkAddend(pass, products, n.Y, n.Op)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloat(pass, n.Lhs[0]) {
					op := token.ADD
					if n.Tok == token.SUB_ASSIGN {
						op = token.SUB
					}
					checkAddend(pass, products, n.Lhs[0], op)
					checkAddend(pass, products, n.Rhs[0], op)
				}
			}
			return true
		})
	}
	return nil
}

// productLocals finds the local variables of a file that are ever
// assigned an unrounded float product, by := , = or var.
func productLocals(pass *analysis.Pass, f *ast.File) map[*types.Var]bool {
	vars := map[*types.Var]bool{}
	record := func(lhs []*ast.Ident, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return
		}
		for k, id := range lhs {
			if id == nil || product(pass, rhs[k]) == nil {
				continue
			}
			if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok && v.Parent() != pass.Pkg.Scope() {
				vars[v] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE || n.Tok == token.ASSIGN {
				ids := make([]*ast.Ident, len(n.Lhs))
				for k, e := range n.Lhs {
					ids[k], _ = ast.Unparen(e).(*ast.Ident)
				}
				record(ids, n.Rhs)
			}
		case *ast.ValueSpec:
			record(n.Names, n.Values)
		}
		return true
	})
	return vars
}

// checkAddend reports e, an operand of a float + or -, when it is an
// unrounded product or a local holding one.
func checkAddend(pass *analysis.Pass, products map[*types.Var]bool, e ast.Expr, op token.Token) {
	if p := product(pass, e); p != nil {
		pass.Reportf(p.Pos(), "float product reaches a %s unrounded, and arm64, ppc64le, s390x and riscv64 may fuse the two into one multiply-add; round it with an explicit float64(...)", op)
		return
	}
	if id, ok := peel(e).(*ast.Ident); ok {
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && products[v] {
			pass.Reportf(id.Pos(), "%s holds an unrounded float product and reaches a %s, which may fuse across statements; round it where it is assigned with an explicit float64(...)", id.Name, op)
		}
	}
}

// product returns e as a non-constant float multiplication, looking
// through parentheses and unary signs, or nil.
func product(pass *analysis.Pass, e ast.Expr) *ast.BinaryExpr {
	b, ok := peel(e).(*ast.BinaryExpr)
	if !ok || b.Op != token.MUL || !isFloat(pass, b) {
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[b]; ok && tv.Value != nil {
		return nil // folded at compile time
	}
	return b
}

// peel strips the parentheses and unary signs a fused operation sees
// through.
func peel(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.ADD && x.Op != token.SUB {
				return e
			}
			e = x.X
		default:
			return e
		}
	}
}

func isFloat(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods (rand.Rand.Intn etc.) are fine — reaching one requires a
	// constructed, seeded generator. Only package-level functions touch
	// the global source.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now makes solver output depend on the wall clock; thread the timestamp in from the serving layer")
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "%s.%s draws from the unseeded global source; use rand.New(rand.NewSource(seed)) so identical seeds replay identical solves", fn.Pkg().Name(), fn.Name())
		}
	}
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if bad := orderSensitive(pass, rs.Body); bad != nil {
		pass.Reportf(rs.Pos(), "map iteration order is random, and this loop feeds it into %s; iterate a sorted key slice instead", bad.desc)
	}
}

type sensitiveOp struct {
	desc string
}

// orderSensitive reports the first operation in a map-range body whose
// effect depends on iteration order, or nil when the body only
// aggregates commutatively.
func orderSensitive(pass *analysis.Pass, body *ast.BlockStmt) *sensitiveOp {
	var found *sensitiveOp
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isOrderFreeBuiltin(pass, n) {
				return true
			}
			desc := "a call"
			if fn := pass.CalleeFunc(n); fn != nil {
				desc = "a call to " + fn.Name()
			} else if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				desc = "a call to " + id.Name
			}
			found = &sensitiveOp{desc: desc}
			return false
		case *ast.SendStmt:
			found = &sensitiveOp{desc: "a channel send"}
			return false
		case *ast.ReturnStmt:
			found = &sensitiveOp{desc: "an order-dependent early return"}
			return false
		}
		return true
	})
	return found
}

// isOrderFreeBuiltin recognizes the builtins whose use inside a map
// range cannot observe iteration order.
func isOrderFreeBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	switch id.Name {
	case "delete", "len", "cap", "min", "max":
		return true
	}
	return false
}
