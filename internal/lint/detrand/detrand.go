// Package detrand implements the kklint analyzer enforcing the engine's
// determinism contract: a run is bit-identical from a single 64-bit seed.
//
// Inside the deterministic packages (the walk path: core, sampling, alg,
// checkpoint, and the codec/structure packages they feed) the analyzer
// forbids the three classic ways step-level reproducibility silently rots:
//
//   - ambient randomness: importing math/rand, math/rand/v2, or
//     crypto/rand. All randomness must flow through internal/rng streams,
//     which are seeded and serialized with the walker.
//   - wall-clock reads: time.Now / time.Since / time.Until. Telemetry-only
//     timing is sanctioned by CONTRIBUTING.md but must carry an explicit
//     `//kk:nondet-ok <reason>` waiver so every wall-clock read is a
//     reviewed decision, not an accident.
//   - unordered map iteration: a bare `for range m` over a map. Either
//     collect the keys and sort them (the analyzer recognizes the
//     collect-then-sort idiom and stays quiet) or waive with a reason
//     (e.g. a commutative sum/max reduction).
//
// Waivers are recorded, not discarded: the analyzer's result is the list
// of accepted waivers, and `kklint -waivers` prints them for audit.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"knightking/internal/lint/analysis"
	"knightking/internal/lint/lintutil"
)

// DefaultPackages is the deterministic set: every package whose output is
// pinned by golden tests to be a pure function of the seed. internal/obs
// and internal/bench are deliberately absent — they measure wall time by
// design and are kept away from walk state by the barrierphase analyzer's
// hook-passivity rule instead. internal/service is likewise absent:
// a job server timestamps lifecycle transitions by design, and every
// engine run it launches is covered transitively (core and below stay in
// the set; the payloadown and atomiccounter analyzers still apply to the
// whole repo, internal/service included).
var DefaultPackages = map[string]bool{
	"knightking/internal/core":       true,
	"knightking/internal/sampling":   true,
	"knightking/internal/alg":        true,
	"knightking/internal/checkpoint": true,
	"knightking/internal/rng":        true,
	"knightking/internal/graph":      true,
	"knightking/internal/trace":      true,
	"knightking/internal/stats":      true,
	"knightking/internal/gen":        true,
	"knightking/internal/cluster":    true,
	"knightking/internal/baseline":   true,
	"knightking/internal/embed":      true,
	// dyngraph publishes the epochs jobs are pinned to: iterating a map
	// of delta segments (or timestamping an epoch) would leak
	// nondeterminism into every walk on that epoch.
	"knightking/internal/dyngraph": true,
	// parallel runs the set-up passes of graph, dyngraph and core, each
	// call over its own fixed range, so it is held to their standard.
	"knightking/internal/parallel": true,
	// tracelog hooks directly into the engine's step loop (core.Tracer),
	// so it is held to the same standard as core: its timestamps are
	// telemetry-only and each wall-clock read carries a reviewed waiver.
	"knightking/internal/obs/tracelog": true,
	// coord hands out seeds, nonces, and partitions — anything nondeterministic
	// here (an unordered map range over seats, an unwaivered clock read) would
	// desynchronize ranks or break resumed-run bit-identity. Control-plane
	// liveness timing carries reviewed waivers. cmd/kkrank is in the set too
	// (unlike other CLIs) because it hosts the engine config between
	// coordinator messages.
	"knightking/internal/coord": true,
	"knightking/cmd/kkrank":     true,
}

// forbiddenImports are the ambient randomness sources. No waiver: a
// deterministic package has no legitimate use for them.
var forbiddenImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// clockFuncs are the time package's wall-clock reads (waivable).
var clockFuncs = []string{"Now", "Since", "Until"}

// Analyzer checks the repo's deterministic packages (DefaultPackages).
var Analyzer = NewAnalyzer(DefaultPackages)

// NewAnalyzer returns a detrand instance scoped to the given package-path
// set; tests scope it to fixture packages.
func NewAnalyzer(deterministic map[string]bool) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "detrand",
		Doc: "forbid ambient randomness, wall-clock reads, and unordered map iteration in deterministic packages\n\n" +
			"The engine's contract is that a run is bit-identical from one 64-bit seed; " +
			"this analyzer keeps math/rand, time.Now, and map iteration order out of the walk path.",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			return run(pass, deterministic)
		},
	}
}

func run(pass *analysis.Pass, deterministic map[string]bool) ([]lintutil.Waiver, error) {
	if !deterministic[pass.Pkg.Path()] {
		return nil, nil
	}
	var waivers []lintutil.Waiver

	// waive reports the finding at pos unless a reasoned waiver comment is
	// attached, in which case the waiver is recorded instead.
	waive := func(file *ast.File, pos token.Pos, msg string) {
		lintutil.Waive(pass, pass.Fset, file, &waivers, lintutil.WaiverMarker, pos, msg)
	}

	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, imp := range file.Imports {
			path := importPath(imp)
			if forbiddenImports[path] {
				pass.Reportf(imp.Pos(),
					"import of %s is forbidden in deterministic packages; all randomness must flow through internal/rng streams",
					path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if lintutil.IsPkgCall(pass.TypesInfo, n, "time", clockFuncs...) {
					waive(file, n.Pos(),
						"wall-clock read in deterministic package; walk state must never depend on it — waive telemetry-only timing with //"+
							lintutil.WaiverMarker+" <reason>")
				}
			case *ast.RangeStmt:
				t := pass.TypesInfo.Types[n.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if sortedKeyCollection(pass, file, n) {
					return true
				}
				waive(file, n.Pos(),
					"map iteration order is nondeterministic; collect and sort the keys, or waive an order-independent walk with //"+
						lintutil.WaiverMarker+" <reason>")
			}
			return true
		})
	}
	return waivers, nil
}

// importPath returns the unquoted import path of spec.
func importPath(spec *ast.ImportSpec) string {
	p := spec.Path.Value
	if len(p) >= 2 {
		return p[1 : len(p)-1]
	}
	return p
}

// sortedKeyCollection recognizes the deterministic map-walk idiom and
// suppresses the diagnostic for it:
//
//	for k := range m {            // keys only, single append
//	    keys = append(keys, k)
//	}
//	sort.Slice(keys, ...)         // or any sort.*/slices.Sort* call
//
// The collected slice must later appear in a call into package sort or
// slices within the same function; iterating it afterwards is then
// deterministic.
func sortedKeyCollection(pass *analysis.Pass, file *ast.File, rs *ast.RangeStmt) bool {
	// Keys only: `for k := range m` with no value (or a blank value).
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if v, ok := rs.Value.(*ast.Ident); rs.Value != nil && (!ok || v.Name != "_") {
		return false
	}
	// Body is exactly `dst = append(dst, k)`.
	if len(rs.Body.List) != 1 {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || lintutil.ObjOf(pass.TypesInfo, arg0) != lintutil.ObjOf(pass.TypesInfo, dst) {
		return false
	}
	if arg1, ok := call.Args[1].(*ast.Ident); !ok ||
		lintutil.ObjOf(pass.TypesInfo, arg1) != lintutil.ObjOf(pass.TypesInfo, key) {
		return false
	}
	dstObj := lintutil.ObjOf(pass.TypesInfo, dst)
	if dstObj == nil {
		return false
	}

	// The collected slice must reach a sort after the loop, in the same
	// function (the file-level walk finds the innermost one containing rs).
	fn := enclosingFunc(file, rs)
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(pass.TypesInfo, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && lintutil.ObjOf(pass.TypesInfo, id) == dstObj {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// enclosingFunc returns the body of the innermost function (decl or
// literal) containing n.
func enclosingFunc(file *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncDecl:
			if m.Body != nil && m.Body.Pos() <= n.Pos() && n.End() <= m.Body.End() {
				body = m.Body
			}
		case *ast.FuncLit:
			if m.Body.Pos() <= n.Pos() && n.End() <= m.Body.End() {
				body = m.Body
			}
		}
		return true
	})
	return body
}

// isSortCall reports whether call invokes anything in package sort or
// slices (sort.Strings, sort.Slice, slices.Sort, slices.SortFunc, ...).
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "sort" || obj.Pkg().Path() == "slices"
}
