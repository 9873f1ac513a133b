// Package barrierphase implements the kklint analyzer enforcing BSP phase
// discipline on engine state and passivity of observer/tracer hooks.
//
// Rule 1: phase-tagged fields. A struct field carrying a `//kk:phase
// <name>[,<name>...]` comment (trailing on the field line or alone on the
// line above) may only be written from functions running in one of those
// phases. A function's phase set comes from its own `//kk:phase <names>`
// doc annotation when present; otherwise it inherits the union of the
// phases of the annotated functions it is reachable from in the package
// call graph — an explicit annotation overrides inheritance, so a
// superstep driver annotated `barrier` does not leak its phase into the
// compute stages it calls. Writes from functions with no phase at all
// (unreachable from any annotated root) are findings too: phase-tagged
// state must only move inside the superstep structure. Composite-literal
// construction is not a write, so constructors building the whole struct
// stay out of scope; constructors assigning tagged fields directly belong
// in a `setup` phase listed on the field.
//
// Rule 2: hook passivity, generalized from the ad-hoc check that lived in
// atomiccounter. Implementations of any interface whose name ends in
// Observer or Tracer (the engine's two hook surfaces, core.Observer and
// core.Tracer, plus fixtures) may accumulate into their own receiver but
// must be passive toward the engine: no writes to state
// reachable from hook parameters — directly or by passing a parameter to
// an in-package function that writes through it (tracked with the shared
// interprocedural write-through summaries) — and no channel sends, direct
// or via an in-package callee. Hooks observe the engine; they never steer
// it and never block on another goroutine's readiness.
package barrierphase

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"knightking/internal/lint/analysis"
	"knightking/internal/lint/lintutil"
)

// PhaseMarker is the comment prefix tagging fields and functions with
// their BSP phase.
const PhaseMarker = "kk:phase"

// Analyzer is the phase-discipline and hook-passivity check.
var Analyzer = &analysis.Analyzer{
	Name: "barrierphase",
	Doc: "enforce BSP phase discipline on //kk:phase-tagged fields and passivity of Observer/Tracer hooks\n\n" +
		"Engine state tagged with a phase may only be mutated by functions reachable in that phase, " +
		"and hook implementations must not write engine state or send on channels.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := analysis.BuildCallGraph(pass)
	checkPhases(pass, g)
	checkHookPassivity(pass, g)
	return nil, nil
}

// --- rule 1: phase-tagged fields ---

func checkPhases(pass *analysis.Pass, g *analysis.CallGraph) {
	tagged := taggedFields(pass)
	if len(tagged) == 0 {
		return
	}

	// A function's phase set: its own annotation, or what it inherits from
	// annotated roots through the call graph (annotation stops
	// propagation).
	stop := func(n *analysis.FuncNode) bool {
		_, ok := n.Directive("phase")
		return ok
	}
	phasesOf := make(map[*types.Func]map[string]bool)
	addPhases := func(fn *types.Func, names []string) {
		set := phasesOf[fn]
		if set == nil {
			set = make(map[string]bool)
			phasesOf[fn] = set
		}
		for _, n := range names {
			set[n] = true
		}
	}
	for fn, node := range g.Nodes {
		d, ok := node.Directive("phase")
		if !ok {
			continue
		}
		names := splitPhases(d.Args)
		for reached := range g.Reachable([]*types.Func{fn}, stop) {
			addPhases(reached, names)
		}
	}

	for fn, node := range g.Nodes {
		if lintutil.IsTestFile(pass.Fset, node.Decl.Pos()) {
			continue
		}
		report := func(lhs ast.Expr) {
			for _, fobj := range fieldChain(pass.TypesInfo, lhs) {
				phases, ok := tagged[fobj]
				if !ok {
					continue
				}
				fnPhases := phasesOf[fn]
				if intersects(fnPhases, phases) {
					continue
				}
				if len(fnPhases) == 0 {
					pass.Reportf(lhs.Pos(),
						"phase-tagged field %s (phase %s) written in %s, which is not reachable from any //kk:phase root",
						fobj.Name(), joinPhases(phases), fn.Name())
				} else {
					pass.Reportf(lhs.Pos(),
						"phase-tagged field %s (phase %s) written in %s, which runs in phase %s",
						fobj.Name(), joinPhases(phases), fn.Name(), joinPhases(fnPhases))
				}
			}
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if _, isIdent := lhs.(*ast.Ident); isIdent {
						continue
					}
					report(lhs)
				}
			case *ast.IncDecStmt:
				if _, isIdent := n.X.(*ast.Ident); !isIdent {
					report(n.X)
				}
			}
			return true
		})
	}
}

// taggedFields collects every struct field carrying a //kk:phase comment,
// mapped to its phase-name set.
func taggedFields(pass *analysis.Pass) map[types.Object]map[string]bool {
	out := make(map[types.Object]map[string]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				args, found := fieldPhaseTag(fld)
				if !found {
					continue
				}
				names := splitPhases(args)
				if len(names) == 0 {
					pass.Reportf(fld.Pos(), "//%s tag needs at least one phase name", PhaseMarker)
					continue
				}
				set := make(map[string]bool, len(names))
				for _, p := range names {
					set[p] = true
				}
				for _, name := range fld.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = set
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldPhaseTag finds a //kk:phase directive in a field's own comments —
// its doc group (line above) or trailing group. The parser's comment
// attachment is used rather than line arithmetic so a tag trailing one
// field is never mistaken for a tag above the next.
func fieldPhaseTag(fld *ast.Field) (args string, found bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		for _, d := range analysis.ParseDirectives(cg) {
			if d.Name == "phase" {
				return d.Args, true
			}
		}
	}
	return "", false
}

// fieldChain returns the field objects traversed by an lvalue chain:
// fieldChain(`n.loop.scanWeights[i]`) = [scanWeights, loop]. Writing an element or
// member through a tagged field is a write to that field's phase domain.
func fieldChain(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if v, ok := lintutil.ObjOf(info, x.Sel).(*types.Var); ok && v.IsField() {
				out = append(out, v)
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return out
		}
	}
}

func splitPhases(args string) []string {
	var out []string
	for _, p := range strings.Split(args, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func joinPhases(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func intersects(a, b map[string]bool) bool {
	for n := range a {
		if b[n] {
			return true
		}
	}
	return false
}

// --- rule 2: hook passivity ---

// hookIface is one Observer/Tracer interface visible to the package.
type hookIface struct {
	iface *types.Interface
	kind  string // "observer" or "tracer", for diagnostics
}

func checkHookPassivity(pass *analysis.Pass, g *analysis.CallGraph) {
	ifaces := hookInterfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return
	}
	sums := analysis.Summarize(g)
	info := pass.TypesInfo

	for fn, node := range g.Nodes {
		fd := node.Decl
		if fd.Recv == nil || lintutil.IsTestFile(pass.Fset, fd.Pos()) {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		kind, isHook := hookOf(recv, fd.Name.Name, ifaces)
		if !isHook {
			continue
		}

		// The hook's non-receiver parameters: state the engine showed it.
		params := make(map[types.Object]bool)
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}

		reportf := func(pos token.Pos, format string, args ...interface{}) {
			pass.Reportf(pos, "%s hook %s must be passive: %s",
				kind, fd.Name.Name, fmt.Sprintf(format, args...))
		}

		// Direct writes through hook parameters and direct channel sends.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if _, isIdent := lhs.(*ast.Ident); isIdent {
						continue
					}
					if root := lintutil.Root(lhs); root != nil {
						obj := lintutil.ObjOf(info, root)
						if obj != nil && params[obj] && analysis.AliasesCaller(obj.Type()) {
							reportf(lhs.Pos(), "this writes state reachable from hook parameter %s", root.Name)
						}
					}
				}
			case *ast.IncDecStmt:
				if _, isIdent := n.X.(*ast.Ident); !isIdent {
					if root := lintutil.Root(n.X); root != nil {
						obj := lintutil.ObjOf(info, root)
						if obj != nil && params[obj] && analysis.AliasesCaller(obj.Type()) {
							reportf(n.X.Pos(), "this writes state reachable from hook parameter %s", root.Name)
						}
					}
				}
			case *ast.SendStmt:
				reportf(n.Arrow, "channel send inside a hook")
			}
			return true
		})

		// Interprocedural: passing a hook parameter to an in-package
		// function that writes through it, or calling an in-package sender.
		for _, cs := range node.Calls {
			callee := cs.Callee
			if callee == nil || g.NodeOf(callee) == nil {
				continue
			}
			if _, sends := sums.Sends(callee); sends {
				reportf(cs.Call.Pos(), "calls %s, which sends on a channel", callee.Name())
			}
			cw := sums.ParamWritesOf(callee)
			if len(cw) == 0 {
				continue
			}
			args := calleeArgs(info, cs.Call, callee)
			for i, arg := range args {
				if i >= len(cw) || !cw[i] || arg == nil {
					continue
				}
				root := lintutil.Root(arg)
				if root == nil {
					continue
				}
				if obj := lintutil.ObjOf(info, root); obj != nil && params[obj] {
					reportf(arg.Pos(), "call passes hook parameter %s to %s, which writes through it",
						root.Name, callee.Name())
				}
			}
		}
	}
}

// calleeArgs aligns a call's expressions with the callee's summary
// positions (receiver first for method calls).
func calleeArgs(info *types.Info, call *ast.CallExpr, callee *types.Func) []ast.Expr {
	var out []ast.Expr
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		} else {
			out = append(out, nil)
		}
	}
	out = append(out, call.Args...)
	return out
}

// hookInterfaces collects every interface named *Observer or *Tracer
// visible to the package: its own scope plus direct imports.
func hookInterfaces(pkg *types.Package) []hookIface {
	var out []hookIface
	scopes := []*types.Scope{pkg.Scope()}
	for _, imp := range pkg.Imports() {
		scopes = append(scopes, imp.Scope())
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			var kind string
			switch {
			case strings.HasSuffix(name, "Observer"):
				kind = "observer"
			case strings.HasSuffix(name, "Tracer"):
				kind = "tracer"
			default:
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 {
				continue
			}
			out = append(out, hookIface{iface: iface, kind: kind})
		}
	}
	return out
}

// hookOf reports whether method name on receiver type recv is a hook of
// one of the interfaces, and of which kind.
func hookOf(recv types.Type, name string, ifaces []hookIface) (string, bool) {
	for _, h := range ifaces {
		implements := types.Implements(recv, h.iface)
		if !implements {
			if _, isPtr := recv.(*types.Pointer); !isPtr {
				implements = types.Implements(types.NewPointer(recv), h.iface)
			}
		}
		if !implements {
			continue
		}
		for i := 0; i < h.iface.NumMethods(); i++ {
			if h.iface.Method(i).Name() == name {
				return h.kind, true
			}
		}
	}
	return "", false
}
