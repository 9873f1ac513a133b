// Package driver loads type-checked packages and runs the kklint
// analyzers over them: Standalone shells out to `go list -export -deps
// -test` for package metadata and export data, type-checks each target
// package (test variants included) against the gc export files, prints
// diagnostics, and audits waivers. It uses only the standard library:
// the repo has no external dependencies, so the usual x/tools loaders are
// reimplemented here on top of go/importer.
//
// Cross-package facts: interprocedural analyzers (hotalloc) export a
// per-package JSON blob and read the blobs of the packages they import.
// Standalone exploits `go list -deps` dependency ordering to propagate
// the blobs in-memory — module dependencies outside the requested
// patterns are analyzed facts-only (diagnostics suppressed) so callers
// always see their callees' contracts.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"knightking/internal/lint/analysis"
	"knightking/internal/lint/lintutil"
)

// Diag is one analyzer finding with a resolved source position.
type Diag struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Waiver is one accepted waiver comment, with position resolved.
type Waiver struct {
	Pos    token.Position
	Marker string
	Reason string
}

// Options selects Standalone's optional behaviors.
type Options struct {
	// Waivers prints every accepted waiver after the diagnostics.
	Waivers bool
}

// facts is the cross-package blob store: analyzer name → canonical
// package path → blob.
type facts map[string]map[string][]byte

// factsOnly filters analyzers down to the ones that export cross-package
// facts. Dependency-only units (module deps outside the requested
// patterns) run only these: downstream packages still see their callees'
// contracts, and non-fact analyzers never run over code that was never a
// lint target.
func factsOnly(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if a.Facts {
			out = append(out, a)
		}
	}
	return out
}

// analyze applies every analyzer to one type-checked package, threading
// the facts store through each pass.
func analyze(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, fs facts) ([]Diag, []Waiver, error) {
	var diags []Diag
	var waivers []Waiver
	for _, a := range analyzers {
		blobs := fs[a.Name]
		if blobs == nil {
			blobs = make(map[string][]byte)
			fs[a.Name] = blobs
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, Diag{
					Pos:      fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			},
			ImportFacts: func(path string) []byte { return blobs[path] },
			ExportFacts: func(blob []byte) {
				if blob != nil {
					blobs[pkg.Path()] = blob
				}
			},
		}
		value, err := a.Run(pass)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path(), err)
		}
		if ws, ok := value.([]lintutil.Waiver); ok {
			for _, w := range ws {
				waivers = append(waivers, Waiver{
					Pos:    fset.Position(w.Pos),
					Marker: w.Marker,
					Reason: w.Reason,
				})
			}
		}
	}
	return diags, waivers, nil
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Standalone runs the analyzers over the packages matched by patterns and
// their test variants: `go list -test` replaces each package that has
// tests with its "pkg [pkg.test]" variant (regular + test files) and adds
// the external "pkg_test" package. Diagnostics, stale waivers and
// (optionally) accepted waivers go to out; loader errors to errw. Returns
// the process exit code: 0 clean, 1 findings or stale waivers, 2 errors —
// including patterns that match no packages.
func Standalone(analyzers []*analysis.Analyzer, patterns []string, opts Options, out, errw io.Writer) int {
	args := []string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,ForTest,ImportMap,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = errw
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fmt.Fprintf(errw, "kklint: %v\n", err)
		return 2
	}
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(errw, "kklint: go list: %v\n", err)
		return 2
	}
	exports := make(map[string]string)
	var pkgs []listPkg
	dec := json.NewDecoder(stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(errw, "kklint: decoding go list output: %v\n", err)
			return 2
		}
		if p.Error != nil {
			fmt.Fprintf(errw, "kklint: %s: %s\n", p.ImportPath, p.Error.Err)
			return 2
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	if err := cmd.Wait(); err != nil {
		fmt.Fprintf(errw, "kklint: go list: %v\n", err)
		return 2
	}

	// A package shadowed by its internal test variant ("X [X.test]")
	// contributes facts only; the variant carries the diagnostics for the
	// same files plus the test files.
	shadowed := make(map[string]bool)
	for _, p := range pkgs {
		if p.ForTest != "" && p.ImportPath == p.ForTest+" ["+p.ForTest+".test]" {
			shadowed[p.ForTest] = true
		}
	}
	isTarget := func(p listPkg) bool {
		return !p.Standard && !p.DepOnly &&
			!strings.HasSuffix(p.ImportPath, ".test") && // generated test main
			!shadowed[p.ImportPath]
	}
	nTargets := 0
	for _, p := range pkgs {
		if isTarget(p) {
			nTargets++
		}
	}
	if nTargets == 0 {
		fmt.Fprintf(errw, "kklint: no packages match %s\n", strings.Join(patterns, " "))
		return 2
	}

	fset := token.NewFileSet()
	// One importer per analyzed package: each package's ImportMap decides
	// which export file an import path resolves to (test variants remap
	// their own package), so importer caches must not leak across units.
	newImporter := func(importMap map[string]string) types.Importer {
		return exportImporter{importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if canonical, ok := importMap[path]; ok {
				path = canonical
			}
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		})}
	}

	fs := make(facts)
	var allDiags []Diag
	var allWaivers []Waiver
	var targetFiles []*ast.File
	code := 0
	// pkgs is in dependency order (go list -deps), so a package's facts
	// are always exported before its dependents are analyzed.
	for _, p := range pkgs {
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") || len(p.GoFiles) == 0 {
			continue
		}
		toRun := analyzers
		if !isTarget(p) {
			if toRun = factsOnly(analyzers); len(toRun) == 0 {
				continue
			}
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(p.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				fmt.Fprintf(errw, "kklint: %v\n", err)
				return 2
			}
			files = append(files, f)
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: newImporter(p.ImportMap), Sizes: types.SizesFor("gc", runtime.GOARCH)}
		pkg, err := conf.Check(stripVariant(p.ImportPath), fset, files, info)
		if err != nil {
			fmt.Fprintf(errw, "kklint: typechecking %s: %v\n", p.ImportPath, err)
			return 2
		}
		diags, waivers, err := analyze(toRun, fset, files, pkg, info, fs)
		if err != nil {
			fmt.Fprintf(errw, "kklint: %v\n", err)
			return 2
		}
		if isTarget(p) {
			allDiags = append(allDiags, diags...)
			allWaivers = append(allWaivers, waivers...)
			targetFiles = append(targetFiles, files...)
		}
	}

	sort.Slice(allDiags, func(i, j int) bool { return posLess(allDiags[i].Pos, allDiags[j].Pos) })
	for _, d := range allDiags {
		fmt.Fprintf(out, "%s: %s (%s)\n", d.Pos, d.Message, d.Analyzer)
		code = 1
	}
	if staleCode := auditWaivers(fset, targetFiles, allWaivers, opts.Waivers, out); staleCode != 0 && code == 0 {
		code = staleCode
	}
	return code
}

// auditWaivers flags every waiver-marker comment in the analyzed files
// that no analyzer accepted — a stale waiver suppresses nothing and must
// be removed — and, with list set, first prints the accepted waivers
// (deduplicated: two findings can share one comment). Returns 1 when
// stale waivers exist.
func auditWaivers(fset *token.FileSet, files []*ast.File, accepted []Waiver, list bool, out io.Writer) int {
	acceptedAt := make(map[string]bool)
	var uniq []Waiver
	for _, w := range accepted {
		key := posKey(w.Pos)
		if !acceptedAt[key] {
			acceptedAt[key] = true
			uniq = append(uniq, w)
		}
	}
	if list {
		sort.Slice(uniq, func(i, j int) bool { return posLess(uniq[i].Pos, uniq[j].Pos) })
		for _, w := range uniq {
			fmt.Fprintf(out, "%s: waived: [%s] %s\n", w.Pos, w.Marker, w.Reason)
		}
	}

	var stale []Waiver
	for _, f := range files {
		for _, m := range lintutil.MarkerComments(f) {
			pos := fset.Position(m.Pos)
			if !acceptedAt[posKey(pos)] {
				stale = append(stale, Waiver{Pos: pos, Marker: m.Marker, Reason: m.Reason})
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return posLess(stale[i].Pos, stale[j].Pos) })
	for _, s := range stale {
		fmt.Fprintf(out, "%s: stale waiver: //%s no longer suppresses any diagnostic; remove it\n",
			s.Pos, s.Marker)
	}
	if len(stale) > 0 {
		return 1
	}
	return 0
}

func posKey(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// exportImporter resolves "unsafe" specially and defers everything else
// to the gc export-data importer.
type exportImporter struct {
	under types.Importer
}

func (e exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.under.Import(path)
}

// stripVariant normalizes a test-variant import path like
// "knightking/internal/core [knightking/internal/core.test]" to the plain
// package path, so scope-gated analyzers (detrand's deterministic set,
// goroleak's engine scope) match test variants.
func stripVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}
