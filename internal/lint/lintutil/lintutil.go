// Package lintutil holds the small AST and comment helpers shared by the
// kklint analyzers: waiver-comment lookup, expression roots, and test-file
// detection.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WaiverMarker is the comment prefix that waives a kklint determinism
// finding at one statement: `//kk:nondet-ok <reason>`. The reason is
// mandatory — an empty waiver is itself a diagnostic — and the analyzer
// records every accepted waiver so drivers can list them.
const WaiverMarker = "kk:nondet-ok"

// AllocWaiverMarker waives a hotalloc finding: `//kk:alloc-ok <reason>`.
// The reason should explain why the allocation is off the steady-state
// walker/message path (amortized growth, error path, gated telemetry).
const AllocWaiverMarker = "kk:alloc-ok"

// GoroWaiverMarker waives a goroleak finding: `//kk:goro-ok <reason>`.
// The reason should name the out-of-band join (e.g. http.Server.Shutdown).
const GoroWaiverMarker = "kk:goro-ok"

// AllWaiverMarkers is every marker the stale-waiver audit scans for: a
// marker comment that no longer suppresses any firing diagnostic is dead
// and must be removed.
var AllWaiverMarkers = []string{WaiverMarker, AllocWaiverMarker, GoroWaiverMarker}

// Waiver is one accepted waiver comment. Pos is the position of the
// marker comment itself (not the waived statement), so the stale-waiver
// audit can match accepted waivers against the marker comments present in
// the source.
type Waiver struct {
	Pos    token.Pos
	Marker string
	Reason string
}

// FindWaiver looks for a marker comment attached to the statement at pos:
// either trailing on the same source line or alone on the line directly
// above. A marker trailing code on the line above waives only that line,
// never the next one too. It returns the waiver text (may be empty — the
// caller should then report a missing reason), the comment's position,
// and whether a marker was found at all.
func FindWaiver(fset *token.FileSet, file *ast.File, pos token.Pos, marker string) (reason string, cpos token.Pos, found bool) {
	line := fset.Position(pos).Line
	// A same-line marker always wins over one on the line above: when
	// consecutive lines each carry their own trailing waiver, the one
	// trailing line N-1 must not absorb line N's finding (which would
	// leave line N's own waiver looking stale).
	var above *ast.Comment
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, marker) {
				continue
			}
			switch fset.Position(c.Pos()).Line {
			case line:
				return strings.TrimSpace(strings.TrimPrefix(text, marker)), c.Pos(), true
			case line - 1:
				if above == nil && !trailsCode(fset, file, c) {
					above = c
				}
			}
		}
	}
	if above == nil {
		return "", token.NoPos, false
	}
	text := strings.TrimSpace(strings.TrimPrefix(above.Text, "//"))
	return strings.TrimSpace(strings.TrimPrefix(text, marker)), above.Pos(), true
}

// trailsCode reports whether some syntax node starts or ends on c's line
// before c, i.e. whether c trails code rather than standing alone.
func trailsCode(fset *token.FileSet, file *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	lineStart := fset.File(c.Pos()).LineStart(line)
	before := func(p token.Pos) bool {
		return p.IsValid() && p >= lineStart && p < c.Pos()
	}
	trails := false
	ast.Inspect(file, func(n ast.Node) bool {
		if trails || n == nil || n.End() <= lineStart || n.Pos() >= c.Pos() {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		if before(n.Pos()) || before(n.End()-1) {
			trails = true
		}
		return !trails
	})
	return trails
}

// MarkerComments returns the position of every waiver-marker comment in
// file, for the stale-waiver audit. Directive comments (kk:hotpath,
// kk:phase) are not markers and are not returned.
func MarkerComments(file *ast.File) []Waiver {
	var out []Waiver
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			for _, m := range AllWaiverMarkers {
				if strings.HasPrefix(text, m) {
					out = append(out, Waiver{
						Pos:    c.Pos(),
						Marker: m,
						Reason: strings.TrimSpace(strings.TrimPrefix(text, m)),
					})
					break
				}
			}
		}
	}
	return out
}

// Waive is the shared report-or-record helper: it reports the finding at
// pos unless a reasoned waiver comment with the given marker is attached,
// in which case the waiver is appended to *waivers instead. A marker with
// an empty reason is itself a diagnostic.
func Waive(pass interface {
	Reportf(pos token.Pos, format string, args ...interface{})
}, fset *token.FileSet, file *ast.File, waivers *[]Waiver, marker string, pos token.Pos, msg string) {
	reason, cpos, found := FindWaiver(fset, file, pos, marker)
	switch {
	case !found:
		pass.Reportf(pos, "%s", msg)
	case reason == "":
		pass.Reportf(pos, "//%s waiver needs a reason", marker)
	default:
		*waivers = append(*waivers, Waiver{Pos: cpos, Marker: marker, Reason: reason})
	}
}

// FileOf returns the *ast.File among files containing pos, or nil.
func FileOf(files []*ast.File, pos token.Pos) *ast.File {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// IsTestFile reports whether pos lies in a _test.go file. The kklint
// analyzers enforce runtime contracts; test code asserts those contracts
// rather than being bound by them (e.g. tests count walk endpoints in maps
// and compare order-independently).
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Root unwraps selectors, indexes, slices, stars, parens, and type
// assertions down to the base identifier of an lvalue/rvalue chain:
// Root(`a.b[i].c`) = `a`. Returns nil when the chain does not bottom out
// in an identifier (e.g. a call result or composite literal).
func Root(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// IsPkgCall reports whether call invokes the package-level function
// pkgpath.name (e.g. "time".Now). It resolves through the type-checker, so
// dot-imports and renamed imports are handled correctly.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgpath string, names ...string) bool {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return false
	}
	obj, ok := info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgpath {
		return false
	}
	if obj.Type().(*types.Signature).Recv() != nil {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}

// ObjOf returns the object an identifier resolves to (use or def).
func ObjOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
