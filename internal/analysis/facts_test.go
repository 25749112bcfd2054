package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// The fixture facts mirror the shapes the real analyzers use: an empty
// marker and a struct with data.
type markFact struct{}

func (*markFact) AFact() {}

type dataFact struct{ Origin string }

func (*dataFact) AFact() {}

func checkFixture(t *testing.T, src string) *types.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("fact/a", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestFactSetRoundTrip proves the gob codec the standalone driver
// pipes between packages: facts exported against one type-checked
// package survive Encode/Decode and resolve back to the same objects.
func TestFactSetRoundTrip(t *testing.T) {
	const src = `package a

type T struct{}

func (T) Method() {}

func Fn() {}

func hidden() {}
`
	RegisterFactTypes([]*Analyzer{{
		Name:      "factsfixture",
		FactTypes: []Fact{(*markFact)(nil), (*dataFact)(nil)},
	}})

	pkg := checkFixture(t, src)
	scope := pkg.Scope()
	fn := scope.Lookup("Fn")
	method, _, _ := types.LookupFieldOrMethod(scope.Lookup("T").Type(), true, pkg, "Method")

	facts := NewFactSet()
	facts.putObject(fn, &markFact{})
	facts.putObject(fn, &dataFact{Origin: "a.Fn"})
	facts.putObject(method, &dataFact{Origin: "a.T.Method"})
	facts.putObject(scope.Lookup("hidden"), &markFact{})

	blob, err := facts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("Encode returned an empty blob for a non-empty set")
	}

	// Decoding resolves object paths against a *fresh* type-check of
	// the same package, as a dependent's driver would.
	pkg2 := checkFixture(t, src)
	lookup := func(path string) (*types.Package, error) {
		if path != pkg2.Path() {
			t.Fatalf("lookup asked for %q, want %q", path, pkg2.Path())
		}
		return pkg2, nil
	}
	got := NewFactSet()
	if err := got.Decode(blob, lookup); err != nil {
		t.Fatal(err)
	}

	fn2 := pkg2.Scope().Lookup("Fn")
	var df dataFact
	if !got.getObject(fn2, &df) || df.Origin != "a.Fn" {
		t.Errorf("dataFact on Fn: got %+v, present=%v", df, got.getObject(fn2, &df))
	}
	var mf markFact
	if !got.getObject(fn2, &mf) {
		t.Error("markFact on Fn lost in round trip")
	}
	method2, _, _ := types.LookupFieldOrMethod(pkg2.Scope().Lookup("T").Type(), true, pkg2, "Method")
	df = dataFact{}
	if !got.getObject(method2, &df) || df.Origin != "a.T.Method" {
		t.Errorf("dataFact on T.Method: got %+v", df)
	}
	// A source-checked package scope carries unexported objects, so the
	// fact on hidden resolves here; a scope without the object drops the
	// fact instead — covered by TestFactSetDecodeUnresolvable.
	if hidden2 := pkg2.Scope().Lookup("hidden"); !got.getObject(hidden2, &mf) {
		t.Error("fact on unexported object lost despite a source-level lookup")
	}
}

// TestFactSetDecodeUnresolvable: facts about objects the consumer's
// view of the package does not contain are dropped silently, not an
// error.
func TestFactSetDecodeUnresolvable(t *testing.T) {
	RegisterFactTypes([]*Analyzer{{
		Name:      "factsfixture",
		FactTypes: []Fact{(*dataFact)(nil)},
	}})
	pkg := checkFixture(t, "package a\n\nfunc Gone() {}\n")
	facts := NewFactSet()
	facts.putObject(pkg.Scope().Lookup("Gone"), &dataFact{Origin: "a.Gone"})
	blob, err := facts.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The consumer resolves the same import path to a package that no
	// longer declares Gone.
	shrunk := checkFixture(t, "package a\n")
	got := NewFactSet()
	if err := got.Decode(blob, func(string) (*types.Package, error) { return shrunk, nil }); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("unresolvable fact retained: %d facts in set", got.Len())
	}
}

// TestFactSetEncodeDeterministic: the blob is byte-identical across
// encodes — the repo's reproducibility bar applies to the fact stream
// too.
func TestFactSetEncodeDeterministic(t *testing.T) {
	const src = `package a

func A() {}
func B() {}
func C() {}
`
	RegisterFactTypes([]*Analyzer{{
		Name:      "factsfixture",
		FactTypes: []Fact{(*dataFact)(nil)},
	}})
	pkg := checkFixture(t, src)
	build := func(order []string) []byte {
		facts := NewFactSet()
		for _, name := range order {
			facts.putObject(pkg.Scope().Lookup(name), &dataFact{Origin: name})
		}
		blob, err := facts.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	first := build([]string{"A", "B", "C"})
	for i := 0; i < 8; i++ {
		if next := build([]string{"C", "A", "B"}); !reflect.DeepEqual(first, next) {
			t.Fatalf("Encode is not deterministic across insertion orders (iteration %d)", i)
		}
	}
}

// TestFactSetDecodeEmpty: an empty payload (a package that exported no
// facts) is a complete, empty fact set — not an error.
func TestFactSetDecodeEmpty(t *testing.T) {
	facts := NewFactSet()
	if err := facts.Decode(nil, func(string) (*types.Package, error) {
		t.Fatal("lookup called for an empty payload")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}
