// Package atomiccounter implements the kklint analyzer guarding the
// stats-counter contracts:
//
//  1. Mixed atomicity. A plain integer word whose address is ever passed
//     to a sync/atomic function is an "atomic word"; every other access
//     to it (reads, writes, ++) must also go through sync/atomic, or the
//     snapshot path tears on 32-bit platforms and races everywhere.
//     Fields of type atomic.Int64/atomic.Uint32/... are exempt — their
//     API makes non-atomic access impossible.
//  2. Alignment. A 64-bit atomic word that is a struct field must sit at
//     an 8-byte-aligned offset under 32-bit (GOARCH=386) layout rules,
//     per the sync/atomic bug note; the analyzer computes offsets with
//     types.SizesFor("gc", "386") so the mistake is caught on amd64
//     developer machines.
//
// The observer-passivity rule that used to live here moved to the
// barrierphase analyzer, which applies it to both engine hook surfaces
// (core.Observer and core.Tracer) and adds channel sends and
// interprocedural write-through.
package atomiccounter

import (
	"go/ast"
	"go/token"
	"go/types"

	"knightking/internal/lint/analysis"
	"knightking/internal/lint/lintutil"
)

// Analyzer is the counter check.
var Analyzer = &analysis.Analyzer{
	Name: "atomiccounter",
	Doc: "enforce sync/atomic discipline on counter words\n\n" +
		"Counter words touched by sync/atomic anywhere must be touched by it everywhere, and " +
		"64-bit fields must stay 8-byte aligned under 32-bit layout.",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	checkAtomicWords(pass)
	return nil, nil
}

// --- rule 1 + 2: atomic words ---

func checkAtomicWords(pass *analysis.Pass) {
	info := pass.TypesInfo

	// Pass 1: every `&x` handed to a sync/atomic package function marks
	// x's object as an atomic word; those operand nodes are the allowed
	// accesses.
	words := make(map[types.Object]bool)
	allowed := make(map[ast.Expr]bool)
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicPkgCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if obj := addressedObj(info, un.X); obj != nil {
					words[obj] = true
					allowed[un.X] = true
				}
			}
			return true
		})
	}
	if len(words) == 0 {
		return
	}

	// Pass 2a: 64-bit atomic fields must be 8-byte aligned under 386
	// layout. Package-level vars and allocation starts are guaranteed
	// aligned by the runtime; only interior struct fields can drift.
	sizes386 := types.SizesFor("gc", "386")
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			tv, ok := info.Types[st]
			if !ok {
				return true
			}
			styp, ok := tv.Type.(*types.Struct)
			if !ok {
				return true
			}
			fields := make([]*types.Var, styp.NumFields())
			atomicWord := false
			for i := range fields {
				fields[i] = styp.Field(i)
				if words[fields[i]] {
					atomicWord = true
				}
			}
			// Only structs holding an atomic word need layout math; skipping
			// the rest also keeps Offsetsof away from generic types (type
			// parameters have no concrete size and make gcSizes panic).
			if !atomicWord {
				return true
			}
			offsets := sizes386.Offsetsof(fields)
			for i, f := range fields {
				if !words[f] || sizes386.Sizeof(f.Type()) != 8 {
					continue
				}
				if offsets[i]%8 != 0 {
					pass.Reportf(fieldPos(st, i, f),
						"64-bit atomic field %s is at offset %d under 32-bit layout; move 64-bit counters to the front of the struct or pad to 8-byte alignment",
						f.Name(), offsets[i])
				}
			}
			return true
		})
	}

	// Pass 2b: any other access to an atomic word is a tear/race.
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND && allowed[n.X] {
					return false
				}
			case *ast.SelectorExpr:
				if obj := info.Uses[n.Sel]; obj != nil && words[obj] {
					pass.Reportf(n.Pos(),
						"access to %s without sync/atomic; it is updated atomically elsewhere, so plain reads and writes race and can tear",
						obj.Name())
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && words[obj] {
					pass.Reportf(n.Pos(),
						"access to %s without sync/atomic; it is updated atomically elsewhere, so plain reads and writes race and can tear",
						obj.Name())
				}
			}
			return true
		}
		ast.Inspect(file, visit)
	}
}

// isAtomicPkgCall reports whether call invokes a package-level function of
// sync/atomic (Add*, Load*, Store*, Swap*, CompareAndSwap*). Methods on
// atomic.Int64 etc. have receivers and are not matched — those types are
// safe by construction.
func isAtomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return fn.Type().(*types.Signature).Recv() == nil
}

// addressedObj resolves &x's operand to a trackable object: a struct
// field (via selector) or a variable. Index expressions (&s[i]) have no
// stable object and are not tracked; heap slices are 8-aligned anyway.
func addressedObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.Ident:
		return lintutil.ObjOf(info, e)
	}
	return nil
}

// fieldPos returns the declaration position of the i-th flattened field
// of st (fields with shared type specs and embedded fields included),
// falling back to the field object's own position.
func fieldPos(st *ast.StructType, i int, f *types.Var) token.Pos {
	idx := 0
	for _, fld := range st.Fields.List {
		if len(fld.Names) == 0 {
			if idx == i {
				return fld.Type.Pos()
			}
			idx++
			continue
		}
		for _, name := range fld.Names {
			if idx == i {
				return name.Pos()
			}
			idx++
		}
	}
	return f.Pos()
}
