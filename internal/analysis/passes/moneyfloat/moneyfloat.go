// Package moneyfloat keeps billing arithmetic exact: money.Money is
// micro-dollar fixed point precisely because float drift is
// unacceptable when reproducing a provider's invoice, so float
// detours around the Money API are confined to internal/money and
// internal/units (which own the sanctioned conversions).
//
// Flagged everywhere else:
//
//   - float64(m)/float32(m) conversions of a money.Money value — they
//     bypass even the display-only Dollars() accessor;
//   - money.FromDollars with a computed (non-constant) argument —
//     rebuilding money from float arithmetic reintroduces the drift
//     the type exists to prevent (literal tariff constants in fixtures
//     are fine);
//   - comparisons where either side is a Dollars() call — compare in
//     Money (<, ==), not in float space;
//   - arithmetic whose operands are BOTH money-derived floats
//     (Dollars() calls) — that is money math and belongs in
//     Add/Sub/MulInt/MulFloat.
//
// Mixed objective-space scoring (alpha*time + (1-alpha)*cost.Dollars())
// is deliberately not flagged: scores are floats by design; only
// money-to-money float math is.
//
// Intentional exceptions carry
// //mvlint:allow moneyfloat -- <reason> on the flagged line.
package moneyfloat

import (
	"go/ast"
	"go/token"
	"go/types"

	"vmcloud/internal/analysis"
)

// Analyzer is the exact-money invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:    "moneyfloat",
	Doc:     "bans raw float conversion, comparison and arithmetic on money-typed values outside internal/money and internal/units",
	Exclude: []string{"internal/money", "internal/units"},
	Run:     run,
}

const moneyPkgPath = "vmcloud/internal/money"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkConversion(pass, n)
				checkFromDollars(pass, n)
			case *ast.BinaryExpr:
				checkBinary(pass, n)
			}
			return true
		})
	}
	return nil
}

// isMoney reports whether t is (or points to) money.Money.
func isMoney(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Money" && obj.Pkg() != nil && obj.Pkg().Path() == moneyPkgPath
}

// checkConversion flags float64(m) / float32(m) where m is money.Money.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	if at := pass.TypeOf(call.Args[0]); at != nil && isMoney(at) {
		pass.Reportf(call.Pos(), "raw float conversion of money.Money bypasses exact arithmetic; use Money methods (Add/Sub/MulInt/MulFloat), compare Money directly, or Dollars() strictly for display")
	}
}

// checkFromDollars flags money.FromDollars on computed values.
func checkFromDollars(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Name() != "FromDollars" || fn.Pkg() == nil || fn.Pkg().Path() != moneyPkgPath {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil {
		return // constant literal — fixture/tariff constants are exact by inspection
	}
	pass.Reportf(call.Pos(), "money.FromDollars on a computed value rebuilds money from float arithmetic; keep the computation in Money")
}

// isDollarsCall reports whether e (unparenthesized) is a call to
// money.Money.Dollars.
func isDollarsCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Name() != "Dollars" || fn.Pkg() == nil || fn.Pkg().Path() != moneyPkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func checkBinary(pass *analysis.Pass, be *ast.BinaryExpr) {
	switch be.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		if isDollarsCall(pass, be.X) || isDollarsCall(pass, be.Y) {
			pass.Reportf(be.Pos(), "comparing money in float space via Dollars(); compare Money values directly (they are exact integers)")
		}
	case token.ADD, token.SUB, token.MUL, token.QUO:
		if isDollarsCall(pass, be.X) && isDollarsCall(pass, be.Y) {
			pass.Reportf(be.Pos(), "float arithmetic between two money amounts; compute in Money (Add/Sub/DivInt) and convert once for display")
		}
	}
}
