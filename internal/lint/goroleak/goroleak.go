// Package goroleak implements the kklint analyzer requiring a provable
// join for every goroutine spawned in the engine's long-lived packages
// (core, transport, service, obs). A fire-and-forget goroutine outlives
// the superstep structure: it races shutdown, holds buffers past
// checkpoint restore, and turns clean BSP teardown into a timing bet.
//
// A `go` statement is considered joined when the goroutine body shows one
// of four accepted signals, matched against evidence elsewhere in the
// package:
//
//   - WaitGroup: the body calls Done on a sync.WaitGroup that some
//     function in the package Waits on.
//   - Completion channel: the body sends on (or closes) a channel that
//     the package receives from — the one-shot `done <- err` handshake.
//   - Closed-channel select: the body receives from a channel that the
//     package closes — the quit-channel worker loop.
//   - Context bound: the body consumes ctx.Done(), tying its lifetime to
//     a cancellable context.
//
// The body is the `go func(){...}` literal, the declaration of a named
// in-package callee (`go s.worker()`), or the literal bound to a local
// function variable (`go work()`) — one level deep. Spawns whose body
// cannot be seen (methods of other packages, e.g. `go srv.Serve(ln)`)
// have no provable join and need a `//kk:goro-ok <reason>` waiver naming
// the out-of-band join (e.g. Server.Shutdown).
//
// Object matching is by declaration (the wg variable or struct field),
// not by instance, and the evidence scan is package-wide — a deliberate
// approximation: the analyzer proves the join protocol exists, not that
// every path executes it. Test files are checked like any other file;
// tests leak goroutines across cases just as production code leaks them
// across supersteps.
package goroleak

import (
	"go/ast"
	"go/types"
	"strings"

	"knightking/internal/lint/analysis"
	"knightking/internal/lint/lintutil"
)

// DefaultPackages is the long-lived goroutine-owning set this analyzer
// guards. Short-lived CLIs (cmd/, examples/) exit with the process and
// are deliberately absent; bench harnesses join via b.N scoping.
var DefaultPackages = map[string]bool{
	"knightking/internal/core":            true,
	"knightking/internal/transport":       true,
	"knightking/internal/transport/chaos": true,
	"knightking/internal/service":         true,
	"knightking/internal/obs":             true,
	"knightking/internal/obs/tracelog":    true,
	// coord's coordinator and worker both live for a whole job and spawn
	// accept loops, read pumps, heartbeats, and engine attempts; every one
	// must be joined (or carry a reviewed waiver) or a failover leaks it.
	"knightking/internal/coord": true,
	"knightking/cmd/kkrank":     true,
	// parallel spawns the set-up goroutines of core, graph and dyngraph;
	// Do must join every one before it returns.
	"knightking/internal/parallel": true,
}

// Analyzer checks the repo's goroutine-owning packages (DefaultPackages).
var Analyzer = NewAnalyzer(DefaultPackages)

// NewAnalyzer returns a goroleak instance scoped to the given
// package-path set; tests scope it to fixture packages.
func NewAnalyzer(scoped map[string]bool) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "goroleak",
		Doc: "require a provable join for every goroutine in the engine's long-lived packages\n\n" +
			"Every go statement must hand its goroutine to a WaitGroup that is Waited on, a " +
			"completion channel that is received from, a quit channel that is closed, or a " +
			"cancellable context; //kk:goro-ok <reason> waives a spawn with an out-of-band join.",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			return run(pass, scoped)
		},
	}
}

func run(pass *analysis.Pass, scoped map[string]bool) ([]lintutil.Waiver, error) {
	// External test packages ("pkg_test") are held to the same standard
	// as the package they exercise.
	if !scoped[strings.TrimSuffix(pass.Pkg.Path(), "_test")] {
		return nil, nil
	}
	ev := collectEvidence(pass)
	var waivers []lintutil.Waiver
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goroutineBody(pass, g)
			if body != nil && joined(pass, body, ev) {
				return true
			}
			msg := "goroutine has no provable join (WaitGroup Done/Wait, completion-channel receive, closed quit channel, or context bound)"
			if body == nil {
				msg = "goroutine body is not visible here (external callee or unresolved function value), so no join is provable"
			}
			lintutil.Waive(pass, pass.Fset, file, &waivers, lintutil.GoroWaiverMarker, g.Pos(), msg)
			return true
		})
	}
	return waivers, nil
}

// evidence is the package-wide join-side facts: which WaitGroup
// declarations are Waited on, which channel declarations are received
// from, and which are closed.
type evidence struct {
	waited   map[types.Object]bool
	received map[types.Object]bool
	closed   map[types.Object]bool
}

func collectEvidence(pass *analysis.Pass) *evidence {
	ev := &evidence{
		waited:   make(map[types.Object]bool),
		received: make(map[types.Object]bool),
		closed:   make(map[types.Object]bool),
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && isWaitGroupMethod(info, sel, "Wait") {
					if obj := exprObj(info, sel.X); obj != nil {
						ev.waited[obj] = true
					}
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						if obj := exprObj(info, n.Args[0]); obj != nil {
							ev.closed[obj] = true
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					if obj := exprObj(info, n.X); obj != nil {
						ev.received[obj] = true
					}
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						if obj := exprObj(info, n.X); obj != nil {
							ev.received[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return ev
}

// goroutineBody resolves the statement's goroutine to a visible body:
// the spawned function literal, the in-package declaration of a named
// callee, or the literal bound to a local function variable (one level).
func goroutineBody(pass *analysis.Pass, g *ast.GoStmt) *ast.BlockStmt {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	}
	if callee := analysis.CalleeOf(pass.TypesInfo, g.Call); callee != nil {
		if node := analysis.BuildCallGraph(pass).NodeOf(callee); node != nil {
			return node.Decl.Body
		}
		return nil
	}
	// go work() on a local function variable: find the literal it was
	// bound to anywhere in the package.
	id, ok := ast.Unparen(g.Call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	target := lintutil.ObjOf(pass.TypesInfo, id)
	if target == nil {
		return nil
	}
	var body *ast.BlockStmt
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || lintutil.ObjOf(pass.TypesInfo, lid) != target {
					continue
				}
				if lit, ok := as.Rhs[i].(*ast.FuncLit); ok {
					body = lit.Body
				}
			}
			return true
		})
	}
	return body
}

// joined reports whether body shows one of the accepted join signals
// backed by package-wide evidence.
func joined(pass *analysis.Pass, body *ast.BlockStmt, ev *evidence) bool {
	info := pass.TypesInfo
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			if isWaitGroupMethod(info, sel, "Done") {
				if obj := exprObj(info, sel.X); obj != nil && ev.waited[obj] {
					ok = true
				}
			}
			if isContextDone(info, sel) {
				ok = true
			}
		case *ast.SendStmt:
			if obj := exprObj(info, n.Chan); obj != nil && ev.received[obj] {
				ok = true
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if obj := exprObj(info, n.X); obj != nil && ev.closed[obj] {
					ok = true
				}
			}
		case *ast.RangeStmt:
			if obj := exprObj(info, n.X); obj != nil && ev.closed[obj] {
				ok = true
			}
		}
		return true
	})
	if ok {
		return true
	}
	// close(done) inside the body with a receiver elsewhere also joins
	// (the body signals completion by closing).
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || len(call.Args) != 1 {
			return true
		}
		id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
		if !isIdent || id.Name != "close" {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if obj := exprObj(info, call.Args[0]); obj != nil && ev.received[obj] {
			ok = true
			return false
		}
		return true
	})
	return ok
}

// isWaitGroupMethod reports whether sel names (*sync.WaitGroup).<name>.
func isWaitGroupMethod(info *types.Info, sel *ast.SelectorExpr, name string) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "WaitGroup"
}

// isContextDone reports whether sel names context.Context's Done method.
func isContextDone(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// exprObj resolves a channel/WaitGroup expression to its stable
// declaration object: the variable for `wg`, the field for `s.wg`.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return lintutil.ObjOf(info, e)
	case *ast.SelectorExpr:
		return lintutil.ObjOf(info, e.Sel)
	case *ast.UnaryExpr:
		return exprObj(info, e.X)
	case *ast.StarExpr:
		return exprObj(info, e.X)
	}
	return nil
}
