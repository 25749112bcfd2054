// Package unitchecker is the command-line driver of the ncdrf-lint
// analyzer suite, on the standard library alone (the module vendors no
// external dependencies, so the golang.org/x/tools drivers are off the
// table). `ncdrf-lint ./...` asks `go list` for the packages, orders
// them topologically and analyzes them in-process, threading analyzer
// facts between packages (standalone.go).
package unitchecker

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ncdrf/internal/analysis"
)

// Main is the entry point of a checker binary: it parses -json and the
// package patterns, runs the analyzers and exits with the driver's
// status (0 clean, 1 findings, 2 driver failure).
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")
	analysis.RegisterFactTypes(analyzers)

	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `%[1]s enforces the repository's determinism, immutability and
context-threading invariants (see DESIGN.md, "Enforced invariants").

Usage:
	%[1]s [-json] ./...

Analyzers:
`, progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "	%-10s %s\n", a.Name, firstLine(a.Doc))
		}
		os.Exit(2)
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
	}
	os.Exit(runStandalone(flag.Args(), analyzers, *jsonFlag))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
