package mvlint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
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
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(moduleDir, []string{"./..."}, mvlint.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestTelemetryFastPathsAreMarked pins the observability contract from
// the other side: the telemetry instruments that sit on the zero-alloc
// cache-hit path must carry //mvlint:hotpath, so the hotpath analyzer
// (and TestRepoIsClean above) actually guards them. Removing a marker
// would silently exempt the instrument from the discipline; this test
// turns that into a failure.
func TestTelemetryFastPathsAreMarked(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	// receiver.method (or bare function) -> relative source file.
	want := map[string]string{
		"Counter.Add":          "internal/obs/counter.go",
		"Counter.Inc":          "internal/obs/counter.go",
		"shardIndex":           "internal/obs/counter.go",
		"Gauge.Set":            "internal/obs/counter.go",
		"Gauge.Add":            "internal/obs/counter.go",
		"Histogram.Observe":    "internal/obs/histogram.go",
		"Trace.StartTimer":     "internal/obs/trace.go",
		"Trace.ObserveSince":   "internal/obs/trace.go",
		"Trace.Observe":        "internal/obs/trace.go",
		"endpoint.count":       "internal/server/endpoint.go",
		"endpoint.observe":     "internal/server/endpoint.go",
		"endpoint.respond":     "internal/server/endpoint.go",
		"Server.respondAnswer": "internal/server/server.go",
		"tenantMetrics.record": "internal/server/tenant.go",
		// The wire encoder: what a miss runs between the solver and the
		// socket stays free of fmt, closures and string concatenation.
		"Money.AppendString":            "internal/money/money.go",
		"DataSize.AppendString":         "internal/units/units.go",
		"Table.Cell":                    "internal/report/report.go",
		"Table.AppendText":              "internal/report/report.go",
		"AppendHours":                   "internal/report/report.go",
		"AppendPercent":                 "internal/report/report.go",
		"AppendString":                  "internal/jsonenc/jsonenc.go",
		"AppendFloat":                   "internal/jsonenc/jsonenc.go",
		"AppendFixed":                   "internal/jsonenc/fixed.go",
		"Text.Newline":                  "internal/jsonenc/text.go",
		"Text.Str":                      "internal/jsonenc/text.go",
		"Text.Bytes":                    "internal/jsonenc/text.go",
		"Recommendation.appendReport":   "internal/core/core.go",
		"RecommendationJSON.AppendJSON": "internal/core/encode.go",
		"ParetoPointJSON.AppendJSON":    "internal/core/encode.go",
		"Comparison.appendReport":       "internal/compare/compare.go",
		"Sweep.appendReport":            "internal/compare/sweep.go",
		"ComparisonJSON.AppendJSON":     "internal/compare/encode.go",
		"SweepJSON.AppendJSON":          "internal/compare/encode.go",
		"AdviseResponse.AppendJSON":     "internal/server/server.go",
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
