package unitchecker

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"ncdrf/internal/analysis"
)

// The driver asks `go list -json -deps` for the packages the patterns
// name plus everything they import, topologically sorts the in-module
// subset, and analyzes each package from source in dependency order.
// Facts cross package boundaries as a gob stream: each package's fact
// set is encoded after analysis and decoded by its dependents, so the
// codec a package boundary needs is exercised on every run even though
// the transport is an in-memory map. Diagnostics are reported for the
// packages the patterns named; dependency-only packages are analyzed
// for their facts alone.

// listedPkg is the subset of `go list -json` output the driver needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
}

// jsonFinding is the -json output schema, one object per diagnostic.
// Suppressed findings (//lint:allow) are included and flagged so
// editor/CI integrations can surface them; only unsuppressed ones make
// the exit status nonzero. The schema is pinned by a CLI test.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// runStandalone analyzes the packages the patterns name and returns
// the process exit code: 0 clean, 1 findings, 2 driver failure.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, asJSON bool) int {
	pkgs, err := goList(patterns)
	if err != nil {
		log.Print(err)
		return 2
	}
	order, err := topoOrder(pkgs)
	if err != nil {
		log.Print(err)
		return 2
	}

	fset := token.NewFileSet()
	ld := &sourceLoader{
		fset:   fset,
		stdlib: importer.ForCompiler(fset, "source", nil),
		byPath: pkgs,
		types:  make(map[string]*types.Package),
	}
	factBlobs := make(map[string][]byte)

	var all []analysis.Finding
	for _, path := range order {
		lp := pkgs[path]
		files, pkg, info, err := ld.check(lp)
		if err != nil {
			log.Printf("%s: %v", path, err)
			return 2
		}
		// Seed the pass with the direct dependencies' encoded facts —
		// the gob round-trip is deliberate; see the file comment.
		facts := analysis.NewFactSet()
		for _, imp := range lp.Imports {
			if blob := factBlobs[imp]; len(blob) > 0 {
				if err := facts.Decode(blob, ld.lookup); err != nil {
					log.Printf("%s: facts of %s: %v", path, imp, err)
					return 2
				}
			}
		}
		findings, err := analysis.RunPackage(fset, files, pkg, info, analyzers, facts)
		if err != nil {
			log.Printf("%s: %v", path, err)
			return 2
		}
		blob, err := facts.Encode()
		if err != nil {
			log.Printf("%s: %v", path, err)
			return 2
		}
		factBlobs[path] = blob
		if !lp.DepOnly {
			all = append(all, findings...)
		}
	}

	if asJSON {
		out := []jsonFinding{} // encode [] rather than null when clean
		for _, f := range all {
			p := fset.Position(f.Pos)
			out = append(out, jsonFinding{
				File:       p.Filename,
				Line:       p.Line,
				Column:     p.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			log.Print(err)
			return 2
		}
	} else {
		for _, f := range analysis.Unsuppressed(all) {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(f.Pos), f.Message, f.Analyzer)
		}
	}
	if len(analysis.Unsuppressed(all)) > 0 {
		return 1
	}
	return 0
}

// goList runs `go list -json -deps` over the patterns and returns the
// non-standard-library packages by import path. Standard packages are
// dropped here and resolved through the source importer instead:
// nothing in the suite attaches facts to the standard library.
func goList(patterns []string) (map[string]*listedPkg, error) {
	args := append([]string{"list", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pkgs := make(map[string]*listedPkg)
	dec := json.NewDecoder(out)
	for {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err != nil {
			if err == io.EOF {
				break
			}
			cmd.Wait()
			return nil, fmt.Errorf("go list: %w", err)
		}
		if !lp.Standard && lp.ImportPath != "unsafe" {
			pkgs[lp.ImportPath] = lp
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %v: %w", patterns, err)
	}
	return pkgs, nil
}

// topoOrder sorts the packages so every dependency precedes its
// importers (Kahn's algorithm, ties broken by import path so the run
// order — and with it the output — is deterministic).
func topoOrder(pkgs map[string]*listedPkg) ([]string, error) {
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	indeg := make(map[string]int, len(pkgs))
	importers := make(map[string][]string)
	for _, path := range paths {
		indeg[path] += 0
		for _, imp := range pkgs[path].Imports {
			if _, ok := pkgs[imp]; !ok {
				continue // standard library; not ordered here
			}
			indeg[path]++
			importers[imp] = append(importers[imp], path)
		}
	}
	var ready []string
	for path, d := range indeg {
		if d == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		order = append(order, path)
		changed := false
		for _, dep := range importers[path] {
			if indeg[dep]--; indeg[dep] == 0 {
				ready = append(ready, dep)
				changed = true
			}
		}
		if changed {
			sort.Strings(ready)
		}
	}
	if len(order) != len(pkgs) {
		return nil, fmt.Errorf("import cycle among %d packages", len(pkgs)-len(order))
	}
	return order, nil
}

// sourceLoader parses and type-checks listed packages from source,
// resolving module-local imports to the packages it already checked
// and everything else through the toolchain's source importer. One
// instance serves the whole run, so every package sees the same
// *types.Package for each dependency — the identity facts rely on.
type sourceLoader struct {
	fset   *token.FileSet
	stdlib types.Importer
	byPath map[string]*listedPkg
	types  map[string]*types.Package
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.types[path]; ok {
		return pkg, nil
	}
	if _, ok := l.byPath[path]; ok {
		// A listed package that has not been checked yet would be a
		// topological-order bug, not a user error.
		return nil, fmt.Errorf("internal error: %s imported before it was analyzed", path)
	}
	return l.stdlib.Import(path)
}

// lookup resolves fact package paths for FactSet.Decode.
func (l *sourceLoader) lookup(path string) (*types.Package, error) {
	return l.Import(path)
}

func (l *sourceLoader) check(lp *listedPkg) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go files")
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tc := &types.Config{Importer: l}
	pkg, err := tc.Check(lp.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	l.types[lp.ImportPath] = pkg
	return files, pkg, info, nil
}
