// Package analysistest runs an analyzer over GOPATH-style fixture
// packages and checks its diagnostics against `// want "regexp"`
// comments, mirroring the golang.org/x/tools harness of the same name
// on the standard library alone.
//
// Fixtures live under <analyzer>/testdata/src/<import/path>/: imports
// between fixture packages resolve inside testdata/src (so a fixture
// can impersonate ncdrf/internal/pipeline and give stagemut real stage
// types to look at), and everything else falls through to the
// toolchain's source importer. Expectations:
//
//	m := map[int]int{}
//	for k := range m { // want `map iteration order`
//		fmt.Println(k)
//	}
//
// Every diagnostic must match a want on its line and every want must
// be matched — a fixture line with no comment asserts silence, which
// is how the negative fixtures pin the analyzers' non-findings and the
// `//lint:allow` directive behavior (the harness runs the same driver
// entry point `ncdrf-lint` does, suppression included).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ncdrf/internal/analysis"
)

// Run loads each fixture package below testdata/src, applies the
// analyzer and matches its findings against the package's want
// comments.
//
// Packages are analyzed in the order given over one shared fact set,
// so listing a dependency before its importer exercises cross-package
// fact flow exactly as the topological drivers run it. Suppressed
// findings are excluded from matching — a line carrying an allow
// directive and no want comment asserts the suppression works.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(testdata, "src"))
	facts := analysis.NewFactSet()
	for _, path := range pkgPaths {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			t.Helper()
			pkg, err := l.load(path)
			if err != nil {
				t.Fatalf("loading fixture package %s: %v", path, err)
			}
			findings, err := analysis.RunPackage(l.fset, pkg.files, pkg.pkg, pkg.info, []*analysis.Analyzer{a}, facts)
			if err != nil {
				t.Fatalf("running %s on %s: %v", a.Name, path, err)
			}
			check(t, l.fset, pkg.files, analysis.Unsuppressed(findings))
		})
	}
}

// check matches findings against want comments, two-way.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, findings []analysis.Finding) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, f := range findings {
		posn := fset.Position(f.Pos)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != posn.Filename || w.line != posn.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want matching %q, got no diagnostic", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE extracts the Go-quoted or backquoted expectation strings
// after the "want" marker.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Slash)
				for _, q := range wantRE.FindAllString(rest, -1) {
					var pattern string
					if q[0] == '`' {
						pattern = q[1 : len(q)-1]
					} else {
						var err error
						if pattern, err = strconv.Unquote(q); err != nil {
							t.Fatalf("%s: bad want expectation %s: %v", posn, q, err)
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, pattern, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re})
				}
			}
		}
	}
	return wants
}

// loadedPkg is one type-checked fixture package.
type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader resolves imports from testdata/src first and the standard
// library (compiled from source, so it works without export data or a
// network) second. Fixture packages are memoized, so impersonated
// dependencies are the same *types.Package the target imports.
type loader struct {
	fset   *token.FileSet
	srcdir string
	stdlib types.Importer
	pkgs   map[string]*loadedPkg
}

func newLoader(srcdir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		srcdir: srcdir,
		stdlib: importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*loadedPkg),
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	if fi, err := os.Stat(filepath.Join(l.srcdir, filepath.FromSlash(path))); err == nil && fi.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.stdlib.Import(path)
}

func (l *loader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.srcdir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
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
	pkg, err := tc.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = p
	return p, nil
}
