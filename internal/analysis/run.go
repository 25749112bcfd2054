package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Finding is one diagnostic tagged with the analyzer that produced
// it, as delivered to drivers by RunPackage. Suppressed findings — hit
// by a //lint:allow directive — are included and marked rather than
// dropped, so a driver can surface suppression status (the -json
// output does) while exiting zero on them.
type Finding struct {
	Analyzer   string
	Pos        token.Pos
	Message    string
	Suppressed bool
}

// AllowName is the pseudo-analyzer name under which RunPackage reports
// rotted //lint:allow directives (ones naming an analyzer that does not
// exist). It is a reserved name so the expiry check itself can be
// suppressed explicitly.
const AllowName = "allow"

// RunPackage applies every analyzer to one type-checked package,
// marks the findings hit by the package's //lint:allow directives as
// suppressed, appends the allow-expiry findings (directives naming
// unknown analyzers, under the AllowName pseudo-analyzer), and returns
// everything in file/position order. An analyzer error aborts the run:
// it is a broken analyzer, not a finding.
//
// facts carries the cross-package fact flow: the driver seeds it with
// the dependencies' decoded facts before the call, and the analyzers'
// exported facts accumulate into it for the driver to encode
// afterwards. Pass NewFactSet() when no dependency facts exist.
//
// Both drivers — the standalone topological driver and the
// analysistest harness — go through this single entry point, so a
// fixture exercises exactly the suppression and ordering behavior
// `ncdrf-lint` will apply.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, facts *FactSet) ([]Finding, error) {
	if facts == nil {
		facts = NewFactSet()
	}
	sup := CollectSuppressions(fset, files)
	var out []Finding
	known := map[string]bool{AllowName: true}
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			facts:     facts,
		}
		pass.Report = func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer:   a.Name,
				Pos:        d.Pos,
				Message:    d.Message,
				Suppressed: sup.Allowed(fset, a.Name, d.Pos),
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	// Expiry check: a directive naming an analyzer that no longer
	// exists suppresses nothing and would otherwise rot silently.
	for _, d := range sup.Directives() {
		if isTestFilename(fset.Position(d.Pos).Filename) {
			continue
		}
		for _, n := range d.Names {
			if !known[n] {
				out = append(out, Finding{
					Analyzer:   AllowName,
					Pos:        d.Pos,
					Message:    fmt.Sprintf("//lint:allow names unknown analyzer %q (renamed or removed?); delete or update the directive", n),
					Suppressed: sup.Allowed(fset, AllowName, d.Pos),
				})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// Unsuppressed filters findings down to the ones that should fail a
// build: everything not hit by an allow directive.
func Unsuppressed(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
