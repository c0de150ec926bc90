package mvlint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"vmcloud/internal/analysis"
	"vmcloud/internal/analysis/mvlint"
)

// TestSuiteHasEveryContract pins the registry: dropping an analyzer
// from the suite silently stops enforcing its invariant.
func TestSuiteHasEveryContract(t *testing.T) {
	want := map[string]bool{"determinism": true, "noretain": true, "hotpath": true, "moneyfloat": true}
	for _, a := range mvlint.Suite() {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("analyzer %q missing from suite", name)
	}
}

// TestRepoIsClean runs the full suite over the module, exactly as
// cmd/mvlint and the CI step do. Any finding here is either a genuine
// invariant violation (fix it) or an intentional exception (annotate it
// with //mvlint:allow <analyzer> -- <reason>).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint shells out to go list; skipped in -short")
	}
	moduleDir := moduleRoot(t)
	diags, err := analysis.Run(moduleDir, []string{"./..."}, mvlint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestEveryInternalPackageIsReached holds the module to what it ships:
// every package under internal/ must be in the non-test import closure of
// a command, an example or the root facade. A package only tests reach
// is a second stack nobody runs; the two test-support packages are the
// exception.
func TestEveryInternalPackageIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module through go list; skipped in -short")
	}
	moduleDir := moduleRoot(t)
	pkgs, err := analysis.LoadPackages(moduleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*analysis.Package, len(pkgs))
	var stack []string
	for _, p := range pkgs {
		byPath[p.Path] = p
		if p.Path == module || strings.HasPrefix(p.Path, module+"/cmd/") || strings.HasPrefix(p.Path, module+"/examples/") {
			stack = append(stack, p.Path)
		}
	}
	reached := map[string]bool{}
	for len(stack) > 0 {
		path := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p, ok := byPath[path]
		if !ok || reached[path] {
			continue // outside the module, or already walked
		}
		reached[path] = true
		for _, imp := range p.Types.Imports() {
			stack = append(stack, imp.Path())
		}
	}
	exempt := map[string]bool{
		module + "/internal/wiretest":              true,
		module + "/internal/analysis/analysistest": true,
	}
	for _, p := range pkgs {
		if strings.HasPrefix(p.Path, module+"/internal/") && !reached[p.Path] && !exempt[p.Path] {
			t.Errorf("%s is reached by no command, example or the root facade: serve it or delete it", p.Path)
		}
	}
}

// declarationAllow names the declarations only tests call that stay
// anyway, each with its reason: an oracle other packages' tests compare
// the product against.
var declarationAllow = map[string]string{
	module + "/internal/obs.ValidateText": "the exposition-format oracle: " +
		"cmd/mvcloudd's, server's and obs's tests hold every /metrics render to it",
	module + "/internal/server.adviseAnswer.JSON": "the advise body's eager wire form, the " +
		"reference server's tests hold the served writer to (Comparison.JSON and Sweep.JSON, " +
		"the other two, are reached through bench/, which builds its advise responses itself), " +
		"and the one product code that sets AdviseResponse.Degraded",
}

// TestEveryDeclarationIsReached holds internal/ to what the product
// calls, one declaration down from TestEveryInternalPackageIsReached:
// every package-level func, method, var and const declared there must be
// reached from a command, an example, the root facade or bench/. Code only
// a package's own tests use belongs in its _test.go files.
func TestEveryDeclarationIsReached(t *testing.T) {
	pkgs := loadProduct(t)
	checked := func(path string) bool { return strings.HasPrefix(path, module+"/internal/") }
	for _, msg := range unreached(pkgs, checked, declarationAllow) {
		t.Error(msg)
	}
	if len(declarationAllow) > 8 {
		t.Errorf("declarationAllow has %d entries; delete code rather than excuse it", len(declarationAllow))
	}
}

// productPkgs memoizes loadProduct: the two whole-module gates share
// one load.
var productPkgs struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

// loadProduct loads every package of the module and of bench/, less the
// test-support packages, which are neither checked nor roots. It skips
// the test in -short.
func loadProduct(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the whole module and bench/ through go list; skipped in -short")
	}
	moduleDir := moduleRoot(t)
	productPkgs.once.Do(func() {
		for _, dir := range []string{moduleDir, filepath.Join(moduleDir, "bench")} {
			loaded, err := analysis.LoadPackages(dir, []string{"./..."})
			if err != nil {
				productPkgs.err = err
				return
			}
			for _, p := range loaded {
				if p.Path != module+"/internal/wiretest" && p.Path != module+"/internal/analysis/analysistest" {
					productPkgs.pkgs = append(productPkgs.pkgs, p)
				}
			}
		}
	})
	if productPkgs.err != nil {
		t.Fatal(productPkgs.err)
	}
	return productPkgs.pkgs
}

// TestUnreachedFixture runs the declaration check on
// testdata/src/reach: lib is checked, cmd is the root.
func TestUnreachedFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the fixture through go list; skipped in -short")
	}
	const fixture = module + "/internal/analysis/testdata/src/reach"
	pkgs, err := analysis.LoadPackages(moduleRoot(t), []string{
		"./internal/analysis/testdata/src/reach/lib",
		"./internal/analysis/testdata/src/reach/cmd",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(pkgs, func(path string) bool { return path == fixture+"/lib" }, map[string]string{
		fixture + "/lib.Oracle": "a root, with its helper",
		fixture + "/lib.Used":   "stale: reached anyway",
		fixture + "/lib.Gone":   "stale: names nothing",
	})
	want := []string{
		"allowlist entry " + fixture + "/lib.Gone names no declaration",
		"allowlist entry " + fixture + "/lib.Used is reached without it: drop the entry",
		fixture + "/lib.Unused is reached by nothing the product runs",
		fixture + "/lib.helper is reached by nothing the product runs",
	}
	var trimmed []string
	for _, msg := range got {
		trimmed = append(trimmed, strings.SplitN(msg, " (", 2)[0])
	}
	if strings.Join(trimmed, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unreached returns, sorted, every package-level func, method, var and
// const declared in a package checked selects that no root reaches, and
// every stale allow entry. Roots are the declarations of unchecked
// packages, init funcs, blank vars, allowlisted declarations, and methods
// whose name some interface declares (the ones the closure's types
// mention, plus the ones fmt, errors and the json/text codecs call by
// reflection): a call through an interface names no concrete method.
// Reach is a fixpoint: a use inside an unreached declaration does not
// count, so a helper only dead code calls is reported too.
//
// Objects are keyed "path.Name" or "path.Recv.Name", never by identity:
// each package is type-checked against export data, so a caller's
// *types.Func is not the object in the declaring package's Defs.
func unreached(pkgs []*analysis.Package, checked func(path string) bool, allow map[string]string) []string {
	viaInterface := map[string]bool{"String": true, "Error": true, "MarshalJSON": true,
		"UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true}
	seen := map[types.Type]bool{}
	for _, p := range pkgs {
		for _, tv := range p.TypesInfo.Types {
			interfaceMethods(tv.Type, viaInterface, seen)
		}
	}

	declared := map[string]token.Position{}
	edges := map[string][]string{} // declaration -> declarations it uses
	var roots []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, unit := range declUnits(f) {
				var owners []string // nil: the unit is a root
				if checked(p.Path) {
					for _, id := range unit.names {
						key, _ := objKey(p.TypesInfo.Defs[id])
						if id.Name == "_" || id.Name == "init" || key == "" {
							continue
						}
						declared[key] = p.Fset.Position(id.Pos())
						if fd, ok := unit.node.(*ast.FuncDecl); ok && fd.Recv != nil && viaInterface[id.Name] {
							roots = append(roots, key)
						} else {
							owners = append(owners, key)
						}
					}
				}
				ast.Inspect(unit.node, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					used, ok := objKey(p.TypesInfo.Uses[id])
					if !ok {
						return true
					}
					if owners == nil {
						roots = append(roots, used)
					}
					for _, o := range owners {
						edges[o] = append(edges[o], used)
					}
					return true
				})
			}
		}
	}

	reach := func(skip string) map[string]bool {
		live := map[string]bool{}
		stack := append([]string(nil), roots...)
		for key := range allow {
			if key != skip {
				stack = append(stack, key)
			}
		}
		for len(stack) > 0 {
			key := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !live[key] {
				live[key] = true
				stack = append(stack, edges[key]...)
			}
		}
		return live
	}
	live := reach("")
	var out []string
	for key, pos := range declared {
		if !live[key] {
			out = append(out, fmt.Sprintf("%s is reached by nothing the product runs (%s): delete it or move it into a _test.go file", key, pos))
		}
	}
	for key := range allow {
		if _, ok := declared[key]; !ok {
			out = append(out, fmt.Sprintf("allowlist entry %s names no declaration", key))
		} else if reach(key)[key] {
			out = append(out, fmt.Sprintf("allowlist entry %s is reached without it: drop the entry", key))
		}
	}
	sort.Strings(out)
	return out
}

// fieldAllow names the fields only tests set that stay anyway, each
// with its reason. It is empty: a setting only tests turn is a constant
// the tests overwrite after construction.
var fieldAllow = map[string]string{}

// TestEveryFieldIsSet holds every struct the product builds to what the
// product writes: each exported field of a package-level struct type
// that some non-test file of the module or bench/ builds with a
// composite literal must be written by some such file — a literal key,
// an unkeyed literal, an assignment, an increment or its address handed
// to a function of package flag (fs.IntVar(&o.f, …)) — other than its
// own type's withDefaults. A field nothing sets is a constant in
// disguise.
func TestEveryFieldIsSet(t *testing.T) {
	for _, msg := range unsetFields(loadProduct(t), fieldAllow) {
		t.Error(msg)
	}
	if len(fieldAllow) > 0 {
		t.Errorf("fieldAllow has %d entries; make a setting a constant rather than excuse it", len(fieldAllow))
	}
}

// TestUnsetFieldsFixture runs the field check on testdata/src/fields:
// lib declares the structs, cmd builds and sets some of them.
func TestUnsetFieldsFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the fixture through go list; skipped in -short")
	}
	const lib = module + "/internal/analysis/testdata/src/fields/lib"
	const opts = lib + ".Options"
	pkgs, err := analysis.LoadPackages(moduleRoot(t), []string{
		"./internal/analysis/testdata/src/fields/lib",
		"./internal/analysis/testdata/src/fields/cmd",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := unsetFields(pkgs, map[string]string{
		opts + ".Allowed":   "set by nothing, excused",
		opts + ".Keyed":     "stale: set anyway",
		opts + ".Gone":      "stale: names nothing",
		lib + ".Other.Free": "stale: Other is built by no literal",
	})
	want := []string{
		"allowlist entry " + opts + ".Gone names no checked field",
		"allowlist entry " + opts + ".Keyed is set without it: drop the entry",
		"allowlist entry " + lib + ".Other.Free names no checked field",
		lib + ".Inner.Spare is set by no product code",
		opts + ".Defaulted is set by no product code",
		opts + ".ReadOnly is set by no product code",
		opts + ".TestOnly is set by no product code",
		opts + ".Unset is set by no product code",
	}
	var trimmed []string
	for _, msg := range got {
		trimmed = append(trimmed, strings.SplitN(msg, " (", 2)[0])
	}
	if strings.Join(trimmed, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unsetFields returns, sorted, every exported field that no file of pkgs
// writes outside its struct's own withDefaults and allow does not
// excuse, and every stale allow entry. The fields checked are those of
// every package-level struct type of pkgs that some file of pkgs builds
// with a composite literal. A literal writes the fields it keys, or all
// of them when unkeyed; an assignment or increment to a.B.C, or &a.B.C
// as an argument of a flag function, writes C, B and every embedded
// field a promoted selector passes through; any other &a.B.C is not a
// write. Fields
// are keyed "path.Type.Field" and matched by the type that declares
// them, never by identity: each package is type-checked against export
// data (see objKey).
func unsetFields(pkgs []*analysis.Package, allow map[string]string) []string {
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	declared := map[string]token.Position{}
	written := map[string]bool{}
	for _, p := range pkgs {
		// write records a write to the field x selects and to every field
		// on the way to it, unless it happens in the withDefaults of the
		// type that declares that field.
		write := func(x ast.Expr, defaults string) {
			for {
				se, _ := x.(*ast.SelectorExpr)
				sel := p.TypesInfo.Selections[se]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				t := sel.Recv()
				for _, i := range sel.Index() {
					f := derefStruct(t).Field(i)
					if owner := namedKey(t); owner != defaults {
						written[owner+"."+f.Name()] = true
					}
					t = f.Type()
				}
				x = se.X
			}
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				defaults := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "withDefaults" {
					defaults = namedKey(p.TypesInfo.TypeOf(fd.Recv.List[0].Type))
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := p.TypesInfo.TypeOf(n)
						st, ok := typ.Underlying().(*types.Struct)
						owner := namedKey(typ)
						if !ok || owner == "" {
							return true
						}
						declareFields(byPath, owner, declared)
						for i, elt := range n.Elts {
							name := st.Field(i).Name()
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								name = kv.Key.(*ast.Ident).Name
							}
							if owner != defaults {
								written[owner+"."+name] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							write(lhs, defaults)
						}
					case *ast.IncDecStmt:
						write(n.X, defaults)
					case *ast.CallExpr:
						// A flag binding (fs.IntVar(&x.f, …)) writes the
						// field whose address it is handed; any other &x.f
						// may be a read.
						if !isFlagFunc(p.TypesInfo, n.Fun) {
							return true
						}
						for _, arg := range n.Args {
							if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
								write(u.X, defaults)
							}
						}
					}
					return true
				})
			}
		}
	}

	var out []string
	for key, pos := range declared {
		if !written[key] && allow[key] == "" {
			out = append(out, fmt.Sprintf("%s is set by no product code (%s): make it a constant or delete it", key, pos))
		}
	}
	for key := range allow {
		if _, ok := declared[key]; !ok {
			out = append(out, fmt.Sprintf("allowlist entry %s names no checked field", key))
		} else if written[key] {
			out = append(out, fmt.Sprintf("allowlist entry %s is set without it: drop the entry", key))
		}
	}
	sort.Strings(out)
	return out
}

// isFlagFunc reports whether fun names a function or method of package
// flag.
func isFlagFunc(info *types.Info, fun ast.Expr) bool {
	se, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, _ := info.Uses[se.Sel].(*types.Func)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "flag"
}

// declareFields adds the exported fields of the struct type keyed owner
// ("path.Type") to declared, at their positions in the declaring
// package, when that package is loaded and declares the type at package
// level.
func declareFields(byPath map[string]*analysis.Package, owner string, declared map[string]token.Position) {
	dot := strings.LastIndex(owner, ".")
	p := byPath[owner[:dot]]
	if p == nil {
		return
	}
	obj, ok := p.Types.Scope().Lookup(owner[dot+1:]).(*types.TypeName)
	if !ok {
		return
	}
	st := obj.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Exported() {
			declared[owner+"."+f.Name()] = p.Fset.Position(f.Pos())
		}
	}
}

// namedKey keys a named type, or a pointer to one, "path.Name"; "" for
// anything else.
func namedKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// derefStruct is the struct t or *t is.
func derefStruct(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// declUnit is one top-level declaration as the check attributes uses:
// a func, one var or const spec, or a type or import declaration, which
// defines no name the check counts.
type declUnit struct {
	names []*ast.Ident
	node  ast.Node
}

func declUnits(f *ast.File) []declUnit {
	var units []declUnit
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			units = append(units, declUnit{[]*ast.Ident{d.Name}, d})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					units = append(units, declUnit{vs.Names, vs})
				} else {
					units = append(units, declUnit{nil, spec})
				}
			}
		}
	}
	return units
}

// objKey keys a package-level func, method, var or const by package path,
// receiver type name and name; ok is false for anything else.
func objKey(obj types.Object) (key string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	prefix := obj.Pkg().Path() + "."
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return prefix + o.Name(), true
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return prefix + named.Origin().Obj().Name() + "." + o.Name(), true
		}
	case *types.Var, *types.Const:
		if obj.Pkg().Scope().Lookup(obj.Name()) == obj {
			return prefix + obj.Name(), true
		}
	}
	return "", false
}

// interfaceMethods adds to into the method names of every interface t
// is or mentions through a signature, pointer or container.
func interfaceMethods(t types.Type, into map[string]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if it, ok := u.Underlying().(*types.Interface); ok {
			interfaceMethods(it, into, seen)
		}
	case *types.Interface:
		for i := 0; i < u.NumMethods(); i++ {
			into[u.Method(i).Name()] = true
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				interfaceMethods(tup.At(i).Type(), into, seen)
			}
		}
	case *types.Pointer:
		interfaceMethods(u.Elem(), into, seen)
	case *types.Slice:
		interfaceMethods(u.Elem(), into, seen)
	case *types.Array:
		interfaceMethods(u.Elem(), into, seen)
	case *types.Chan:
		interfaceMethods(u.Elem(), into, seen)
	case *types.Map:
		interfaceMethods(u.Key(), into, seen)
		interfaceMethods(u.Elem(), into, seen)
	}
}

// TestTelemetryFastPathsAreMarked pins the observability contract from
// the other side: the telemetry instruments that sit on the zero-alloc
// cache-hit path must carry //mvlint:hotpath, so the hotpath analyzer
// (and TestRepoIsClean above) actually guards them. Removing a marker
// would silently exempt the instrument from the discipline; this test
// turns that into a failure.
func TestTelemetryFastPathsAreMarked(t *testing.T) {
	moduleDir := moduleRoot(t)
	// receiver.method (or bare function) -> relative source file.
	want := map[string]string{
		"Counter.Add":          "internal/obs/counter.go",
		"Counter.Inc":          "internal/obs/counter.go",
		"Gauge.Add":            "internal/obs/counter.go",
		"Histogram.Observe":    "internal/obs/histogram.go",
		"Trace.StartTimer":     "internal/obs/trace.go",
		"Trace.ObserveSince":   "internal/obs/trace.go",
		"endpoint.count":       "internal/server/endpoint.go",
		"endpoint.observe":     "internal/server/endpoint.go",
		"endpoint.respond":     "internal/server/endpoint.go",
		"Server.respondAnswer": "internal/server/server.go",
		"tenantMetrics.record": "internal/server/tenant.go",
		// The wire encoder: what a miss runs between the solver and the
		// socket stays free of fmt, closures and string concatenation.
		"Money.AppendString":          "internal/money/money.go",
		"DataSize.AppendString":       "internal/units/units.go",
		"DataSize.AppendJSON":         "internal/units/json.go",
		"Table.Cell":                  "internal/report/report.go",
		"Table.AppendText":            "internal/report/report.go",
		"AppendHours":                 "internal/report/report.go",
		"AppendPercent":               "internal/report/report.go",
		"AppendString":                "internal/jsonenc/jsonenc.go",
		"AppendFloat":                 "internal/jsonenc/jsonenc.go",
		"AppendFixed":                 "internal/jsonenc/fixed.go",
		"Text.Newline":                "internal/jsonenc/text.go",
		"Text.Str":                    "internal/jsonenc/text.go",
		"Text.Bytes":                  "internal/jsonenc/text.go",
		"Recommendation.appendReport": "internal/core/core.go",
		"Recommendation.AppendWire":   "internal/core/encode.go",
		"Recommendation.appendAnswer": "internal/core/encode.go",
		"appendTimed":                 "internal/core/encode.go",
		"ParetoPoint.AppendWire":      "internal/core/encode.go",
		"AppendFrontier":              "internal/core/encode.go",
		"Comparison.appendReport":     "internal/compare/compare.go",
		"Sweep.appendReport":          "internal/compare/sweep.go",
		"Comparison.AppendJSON":       "internal/compare/encode.go",
		"Sweep.AppendJSON":            "internal/compare/encode.go",
		"adviseAnswer.AppendJSON":     "internal/server/server.go",
		// The request half: bytes to canonical key — the decoder
		// primitives, every DecodeJSON, every key encoder.
		"Decoder.Object":              "internal/jsondec/jsondec.go",
		"Decoder.Array":               "internal/jsondec/jsondec.go",
		"Decoder.More":                "internal/jsondec/jsondec.go",
		"Decoder.Key":                 "internal/jsondec/jsondec.go",
		"Decoder.Once":                "internal/jsondec/jsondec.go",
		"Decoder.String":              "internal/jsondec/jsondec.go",
		"Decoder.Int64":               "internal/jsondec/jsondec.go",
		"Decoder.Int":                 "internal/jsondec/jsondec.go",
		"Decoder.Float":               "internal/jsondec/jsondec.go",
		"Decoder.Strings":             "internal/jsondec/jsondec.go",
		"Decoder.Ints":                "internal/jsondec/jsondec.go",
		"Decoder.Raw":                 "internal/jsondec/jsondec.go",
		"Decoder.End":                 "internal/jsondec/jsondec.go",
		"AppendInts":                  "internal/jsonenc/jsonenc.go",
		"AppendCompact":               "internal/jsonenc/jsonenc.go",
		"EndObject":                   "internal/jsonenc/jsonenc.go",
		"DecodeJSON":                  "internal/money/json.go",
		"QueryJSON.DecodeJSON":        "internal/workload/json.go",
		"QueryJSON.AppendJSON":        "internal/workload/json.go",
		"ConfigJSON.DecodeMember":     "internal/core/request.go",
		"ConfigJSON.AppendKeyMembers": "internal/core/request.go",
		"RequestJSON.DecodeJSON":      "internal/compare/request.go",
		"RequestJSON.AppendKey":       "internal/compare/request.go",
		"SweepRequestJSON.DecodeJSON": "internal/compare/request.go",
		"SweepRequestJSON.AppendKey":  "internal/compare/request.go",
		"AdviseRequest.DecodeJSON":    "internal/server/request.go",
		"AdviseRequest.AppendKey":     "internal/server/request.go",
	}
	files := map[string][]string{}
	for fn, file := range want {
		files[file] = append(files[file], fn)
	}
	fset := token.NewFileSet()
	for file, fns := range files {
		f, err := parser.ParseFile(fset, filepath.Join(moduleDir, file), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		marked := map[string]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == "//mvlint:hotpath" {
					marked[funcKey(fd)] = true
				}
			}
		}
		for _, fn := range fns {
			if !marked[fn] {
				t.Errorf("%s: %s is not marked //mvlint:hotpath", file, fn)
			}
		}
	}
}

const module = "vmcloud"

// moduleRoot is the directory of the go.mod above the test's package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// funcKey renders a FuncDecl as receiver.method or a bare name.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
