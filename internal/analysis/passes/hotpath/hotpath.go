// Package hotpath machine-enforces the zero-alloc serving contracts.
//
// The cache-hit fast path, the search delta-probe loops and the
// RepriceFor kernel sessions are pinned at (near-)zero allocations per
// operation by committed benchmarks and alloc-budget tests. Those tests
// catch regressions after the fact; this analyzer catches the five
// construct classes that caused every historical regression at compile
// review time, in any function whose doc comment carries
// //mvlint:hotpath:
//
//   - function literals — a closure in a hot function usually means a
//     per-call allocation (and did, before the slow paths became static
//     top-level functions);
//   - defer — fine in cold code, but the marked functions run millions
//     of times per load run and several are too simple to amortize the
//     deferred-call bookkeeping (and a deferred closure also allocates);
//   - calls into package fmt — fmt formats through reflection and
//     allocates on every call, error paths included;
//   - string concatenation (+ / += on strings) — each one is a fresh
//     allocation; hot keys are built in pooled []byte buffers instead;
//   - strconv.AppendFloat / FormatFloat with format 'f' and a constant
//     non-negative precision — strconv has no fast path for a fixed
//     number of decimals and runs its multiprecision decimal on every
//     call (a fifth of the compare encode before jsonenc.AppendFixed);
//     the shortest form, precision -1, has one and is left alone.
//
// The marker is a contract, not a hint: adding //mvlint:hotpath to a
// function that violates it fails the build until the function is
// restructured or the violation carries
// //mvlint:allow hotpath -- <reason>.
package hotpath

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"vmcloud/internal/analysis"
)

// Analyzer is the hot-path allocation-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbids closures, defer, fmt.*, string concatenation and fixed-precision strconv float formatting in functions marked //mvlint:hotpath",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !pass.HotpathMarked(fn) {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocated in hotpath function %s; hoist it to a static top-level function", name)
			return false // the closure's own body is cold by definition once hoisted
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hotpath function %s; unlock/cleanup explicitly on every return", name)
		case *ast.CallExpr:
			callee := pass.CalleeFunc(n)
			if callee == nil || callee.Pkg() == nil {
				break
			}
			switch callee.Pkg().Path() {
			case "fmt":
				pass.Reportf(n.Pos(), "fmt.%s in hotpath function %s allocates on every call; use a static error or preformatted bytes", callee.Name(), name)
			case "strconv":
				if fixedPrecision(pass, callee.Name(), n.Args) {
					pass.Reportf(n.Pos(), "strconv.%s with a fixed precision in hotpath function %s takes strconv's multiprecision path; use jsonenc.AppendFixed", callee.Name(), name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath function %s allocates; build keys in a pooled []byte buffer", name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string concatenation in hotpath function %s allocates; build keys in a pooled []byte buffer", name)
			}
		}
		return true
	})
}

// fixedPrecision reports whether the call is strconv.AppendFloat or
// FormatFloat with the constant format 'f' and a constant precision
// ≥ 0. The (fmt, prec, bitSize) triple ends both signatures.
func fixedPrecision(pass *analysis.Pass, fn string, args []ast.Expr) bool {
	if fn != "AppendFloat" && fn != "FormatFloat" || len(args) < 3 {
		return false
	}
	format, ok := constInt(pass, args[len(args)-3])
	if !ok || format != 'f' {
		return false
	}
	prec, ok := constInt(pass, args[len(args)-2])
	return ok && prec >= 0
}

func constInt(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
