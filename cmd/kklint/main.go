// kklint is the repo's contract checker: a multichecker bundling the
// detrand, payloadown, atomiccounter, hotalloc, barrierphase, goroleak,
// and errdrop analyzers (see internal/lint).
//
// Run it from the module root:
//
//	go run ./cmd/kklint ./...
//
// One pass analyzes every package together with its test variants
// (regular + _test.go files and external test packages) and fails on
// stale //kk:*-ok waivers — markers that no longer suppress anything.
//
// Flags:
//
//	-waivers   also print every accepted //kk:*-ok waiver with its reason
//
// Exit status: 0 clean, 1 findings or stale waivers, 2 usage/load errors
// (including package patterns that match nothing).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"knightking/internal/lint/analysis"
	"knightking/internal/lint/atomiccounter"
	"knightking/internal/lint/barrierphase"
	"knightking/internal/lint/detrand"
	"knightking/internal/lint/driver"
	"knightking/internal/lint/errdrop"
	"knightking/internal/lint/goroleak"
	"knightking/internal/lint/hotalloc"
	"knightking/internal/lint/payloadown"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		payloadown.Analyzer,
		atomiccounter.Analyzer,
		hotalloc.Analyzer,
		barrierphase.Analyzer,
		goroleak.Analyzer,
		errdrop.Analyzer,
	}
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain is main with the process edges injected, so the exit-code
// contract is testable.
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kklint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	waivers := fs.Bool("waivers", false, "print accepted //kk:*-ok waivers after the diagnostics")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: kklint [-waivers] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	return driver.Standalone(analyzers(), patterns, driver.Options{Waivers: *waivers}, stdout, stderr)
}
