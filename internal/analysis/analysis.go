// Package analysis is a minimal, self-contained core of the go/analysis
// model: an Analyzer inspects one type-checked package through a Pass
// and reports position-anchored Diagnostics.
//
// The module deliberately has no external dependencies, so the usual
// golang.org/x/tools/go/analysis machinery is not available; this
// package replicates the small subset the ncdrf-lint suite needs — the
// Analyzer/Pass/Diagnostic triple, the `//lint:allow <analyzer>`
// suppression directive (directives.go), and a driver entry point
// (run.go) shared by the standalone driver
// (internal/analysis/unitchecker) and the fixture test harness
// (internal/analysis/analysistest).
//
// The analyzers themselves live in subpackages (detrange, stagemut,
// ctxflow, wallclock); DESIGN.md's "Enforced invariants" section maps
// each one to the repository rule it guards.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// An Analyzer describes one analysis: a named, documented check over a
// single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppression directives. It must be a valid
	// Go identifier.
	Name string

	// Doc is the help text: first line is a one-sentence summary.
	Doc string

	// Run applies the analyzer to one package. Diagnostics go through
	// Pass.Report / Pass.Reportf; the error return is for analysis
	// failures (not findings).
	Run func(*Pass) error

	// FactTypes lists the concrete fact types this analyzer may export
	// or import (facts.go), one zero-valued pointer per type. An
	// analyzer that declares none is fact-free and its passes reject
	// fact calls.
	FactTypes []Fact
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns suppression
	// (directives.go) and ordering; analyzers just report.
	Report func(Diagnostic)

	// facts is the driver-owned store backing the fact methods below:
	// imported dependency facts plus whatever this package exports.
	facts *FactSet
}

// ExportObjectFact records fact about obj for dependent packages. obj
// must belong to the package under analysis and fact's type must be
// declared in the analyzer's FactTypes; both are programming errors,
// so they panic rather than return.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.checkFact(fact)
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("analysis: %s: ExportObjectFact on object outside package %s", p.Analyzer.Name, p.Pkg.Path()))
	}
	p.facts.putObject(obj, fact)
}

// ImportObjectFact copies into fact the fact of its concrete type
// previously exported about obj — by this package or any dependency — and
// reports whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	p.checkFact(fact)
	if obj == nil {
		return false
	}
	return p.facts.getObject(obj, fact)
}

// checkFact panics unless fact's concrete type is declared in the
// analyzer's FactTypes — the declaration is what lets drivers register
// the type with gob before any package is analyzed.
func (p *Pass) checkFact(fact Fact) {
	for _, f := range p.Analyzer.FactTypes {
		if reflect.TypeOf(f) == reflect.TypeOf(fact) {
			return
		}
	}
	panic(fmt.Sprintf("analysis: %s: fact type %T not declared in FactTypes", p.Analyzer.Name, fact))
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several of
// the suite's rules (wall-clock reads, context threading) bind the
// production code paths only; tests measure time and build fixtures
// freely.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return isTestFilename(p.Fset.Position(pos).Filename)
}
