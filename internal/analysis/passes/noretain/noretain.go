// Package noretain machine-enforces the zero-copy lending contracts
// introduced with the allocation-free cache-hit path: borrowed buffers
// must not outlive the scope they were lent for.
//
// Two kinds of values are tracked, per function:
//
//   - results of a method named view returning []byte — the
//     sieveCache.view contract: the slice aliases cache-owned memory and
//     is valid only until the request returns;
//   - values obtained from (*sync.Pool).Get, and anything reached
//     through them (fields, subslices) — pooled scratch is recycled the
//     moment it is Put back, so an alias that survives the function is
//     a use-after-reuse bug waiting for load.
//
// A tracked value (or a slice/field/alias derived from it) is flagged
// when it can outlive its contract scope: returned, stored into
// package-level state, written through a pointer or into a map, sent on
// a channel, captured by a go statement, appended as an element into
// another slice, or handed to a Put method that takes ownership
// (returning pooled scratch to its own sync.Pool is, of course, the
// contract itself, not a violation). `string(buf)` conversions and
// `append(dst, buf...)` spreads copy the bytes and launder the taint.
//
// The analysis is intentionally intra-procedural and first-order: it
// proves the cheap 95% mechanically and leaves documented exceptions to
// //mvlint:allow noretain -- <reason>.
package noretain

import (
	"go/ast"
	"go/token"
	"go/types"

	"vmcloud/internal/analysis"
)

// Analyzer is the borrowed-buffer retention checker.
var Analyzer = &analysis.Analyzer{
	Name: "noretain",
	Doc:  "flags retention or escape of sieveCache.view buffers and sync.Pool-backed scratch past their contract scope",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn)
			}
		}
	}
	return nil
}

// tracker carries the per-function taint state.
type tracker struct {
	pass *analysis.Pass
	// vals maps a tainted variable to a human description of its origin.
	vals map[types.Object]string
	// poolRoots are the objects assigned directly from (*sync.Pool).Get;
	// putting one of these back into a pool is the recycle idiom.
	poolRoots map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	tr := &tracker{
		pass:      pass,
		vals:      make(map[types.Object]string),
		poolRoots: make(map[types.Object]bool),
	}
	// ast.Inspect visits statements in source order, so taint introduced
	// by an assignment is visible to every later use in straight-line
	// code — good enough for the lending scopes this enforces.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			tr.assign(n)
		case *ast.ReturnStmt:
			tr.ret(n)
		case *ast.SendStmt:
			if desc, ok := tr.tracked(n.Value); ok {
				pass.Reportf(n.Pos(), "%s sent on a channel escapes its contract scope; copy it first", desc)
			}
		case *ast.GoStmt:
			tr.goStmt(n)
		case *ast.CallExpr:
			tr.call(n)
		}
		return true
	})
}

// origin classifies the RHS of an assignment as a taint source and
// returns its description.
func (tr *tracker) origin(e ast.Expr) (desc string, pool bool, ok bool) {
	e = ast.Unparen(e)
	if ta, isAssert := e.(*ast.TypeAssertExpr); isAssert {
		e = ast.Unparen(ta.X)
	}
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := tr.pass.CalleeFunc(call)
	if fn == nil {
		return "", false, false
	}
	if fn.FullName() == "(*sync.Pool).Get" {
		return "sync.Pool-backed scratch", true, true
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil && fn.Name() == "view" &&
		sig.Results().Len() > 0 && isByteSlice(sig.Results().At(0).Type()) {
		return "cache view buffer", false, true
	}
	return "", false, false
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

func (tr *tracker) assign(as *ast.AssignStmt) {
	// Taint introduction: v, ok := x.view(k) / sc := pool.Get().(*T).
	if len(as.Rhs) == 1 {
		if desc, pool, ok := tr.origin(as.Rhs[0]); ok && len(as.Lhs) >= 1 {
			if id, isIdent := ast.Unparen(as.Lhs[0]).(*ast.Ident); isIdent {
				if obj := tr.objectOf(id); obj != nil {
					tr.vals[obj] = desc
					if pool {
						tr.poolRoots[obj] = true
					}
					return
				}
			}
		}
	}
	// Taint propagation and escape checks, pairwise.
	for i, rhs := range as.Rhs {
		if len(as.Lhs) != len(as.Rhs) {
			break
		}
		desc, ok := tr.tracked(rhs)
		if !ok {
			continue
		}
		tr.store(as.Lhs[i], rhs, desc, as.Pos())
	}
}

// store handles `lhs = rhs` where rhs carries taint desc.
func (tr *tracker) store(lhs, rhs ast.Expr, desc string, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	// Writing a value derived from a root back into that same root
	// (rb.b = append(rb.b[:0], ...)) mutates the borrowed object in
	// place — that is using the loan, not extending it.
	if lr, rr := tr.rootObj(lhs), tr.rootObjExpr(rhs); lr != nil && lr == rr {
		return
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		obj := tr.objectOf(l)
		if obj == nil {
			return
		}
		if isPackageLevel(obj) {
			tr.pass.Reportf(pos, "%s stored in package-level variable %s outlives its contract scope; copy it first", desc, l.Name)
			return
		}
		tr.vals[obj] = desc // local alias: propagate the taint
	case *ast.SelectorExpr:
		tr.storeThrough(l.X, desc, pos)
	case *ast.IndexExpr:
		if t := tr.pass.TypeOf(l.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				tr.pass.Reportf(pos, "%s stored into a map outlives its contract scope; copy it first", desc)
				return
			}
		}
		tr.storeThrough(l.X, desc, pos)
	case *ast.StarExpr:
		tr.pass.Reportf(pos, "%s stored through a pointer escapes its contract scope; copy it first", desc)
	}
}

// storeThrough flags stores whose base is caller-visible: a
// package-level variable or anything reached through a pointer. Fields
// and elements of plain local values are fine — they die with the
// frame (the probeState idiom: view aliases carried in a by-value
// struct for the duration of one request).
func (tr *tracker) storeThrough(base ast.Expr, desc string, pos token.Pos) {
	root := tr.rootObj(base)
	if root == nil {
		tr.pass.Reportf(pos, "%s stored into caller-visible state outlives its contract scope; copy it first", desc)
		return
	}
	if isPackageLevel(root) {
		tr.pass.Reportf(pos, "%s stored into package-level state (%s) outlives its contract scope; copy it first", desc, root.Name())
		return
	}
	// Mutating a borrowed object itself is using the loan, not
	// extending it.
	if _, borrowed := tr.vals[root]; borrowed {
		return
	}
	// A pointer-typed root reaches memory the caller (or another
	// goroutine) can already see.
	if _, isPtr := root.Type().Underlying().(*types.Pointer); isPtr {
		tr.pass.Reportf(pos, "%s stored through pointer %s escapes its contract scope; copy it first", desc, root.Name())
	}
}

func (tr *tracker) ret(rs *ast.ReturnStmt) {
	for _, res := range rs.Results {
		desc, ok := tr.tracked(res)
		if !ok {
			continue
		}
		if t := tr.pass.TypeOf(res); t != nil && isReferenceShaped(t) {
			tr.pass.Reportf(rs.Pos(), "returning %s escapes it past its contract scope; return a copy", desc)
		}
	}
}

func (tr *tracker) goStmt(gs *ast.GoStmt) {
	// A goroutine outlives any lending scope: flag tracked call args and
	// tracked variables captured by a func-literal body.
	for _, arg := range gs.Call.Args {
		if desc, ok := tr.tracked(arg); ok {
			tr.pass.Reportf(gs.Pos(), "%s passed to a goroutine may outlive its contract scope; copy it first", desc)
		}
	}
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent {
				return true
			}
			if obj := tr.objectOf(id); obj != nil {
				if desc, tainted := tr.vals[obj]; tainted {
					tr.pass.Reportf(id.Pos(), "%s captured by a goroutine may outlive its contract scope; copy it before spawning", desc)
				}
			}
			return true
		})
	}
}

func (tr *tracker) call(call *ast.CallExpr) {
	// append(dst, buf) aliases buf as an element of a possibly
	// longer-lived slice; append(dst, buf...) copies the bytes.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := tr.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && call.Ellipsis == token.NoPos {
			for _, arg := range call.Args[1:] {
				if desc, tracked := tr.tracked(arg); tracked {
					tr.pass.Reportf(call.Pos(), "%s appended as an element into another slice aliases it past its contract scope; append a copy", desc)
				}
			}
		}
		return
	}
	// Put methods take ownership (sieveCache.Put documents exactly this);
	// handing them a borrowed buffer retains it. Returning pooled
	// scratch to its sync.Pool is the recycle idiom, not a retention.
	fn := tr.pass.CalleeFunc(call)
	if fn == nil || fn.Name() != "Put" {
		return
	}
	isPoolPut := fn.FullName() == "(*sync.Pool).Put"
	for _, arg := range call.Args {
		desc, tracked := tr.tracked(arg)
		if !tracked {
			continue
		}
		if isPoolPut {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := tr.objectOf(id); obj != nil && tr.poolRoots[obj] {
					continue
				}
			}
		}
		tr.pass.Reportf(call.Pos(), "%s handed to %s transfers ownership of a borrowed buffer; copy it first", desc, fn.FullName())
	}
}

// tracked reports whether e is (derived from) a tracked value.
func (tr *tracker) tracked(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if obj := tr.objectOf(e); obj != nil {
			desc, ok := tr.vals[obj]
			return desc, ok
		}
	case *ast.SliceExpr:
		return tr.tracked(e.X)
	case *ast.SelectorExpr:
		return tr.tracked(e.X)
	case *ast.StarExpr:
		return tr.tracked(e.X)
	case *ast.TypeAssertExpr:
		return tr.tracked(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return tr.tracked(e.X)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if desc, ok := tr.tracked(v); ok {
				return desc, true
			}
		}
	case *ast.CallExpr:
		// Only append propagates the alias; every other call result
		// (string(...), x.Bytes(), h.Get(...)) is treated as laundered.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := tr.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(e.Args) > 0 {
				return tr.tracked(e.Args[0])
			}
		}
	}
	return "", false
}

// rootObj resolves the base identifier of an lvalue chain
// (a.b[i].c → a), or nil.
func (tr *tracker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tr.objectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			// append(root, ...) — the result shares root's backing.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

func (tr *tracker) rootObjExpr(e ast.Expr) types.Object { return tr.rootObj(e) }

func (tr *tracker) objectOf(id *ast.Ident) types.Object {
	if obj := tr.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return tr.pass.TypesInfo.Defs[id]
}

func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Parent().Parent() == types.Universe
}

// isReferenceShaped reports whether a value of type t can alias the
// tracked buffer after being returned: anything but a plain scalar or
// string (which are copies by the time they are values).
func isReferenceShaped(t types.Type) bool {
	_, isBasic := t.Underlying().(*types.Basic)
	return !isBasic
}
