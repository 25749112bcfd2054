package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// This file is the cross-package facts layer: the mechanism by which an
// analyzer records something it proved about an object ("this function
// spawns an unjoined goroutine", "this field is guarded by mu") so that
// the analysis of a *dependent* package can consume the conclusion
// without re-analyzing the dependency's source.
//
// The model is the x/tools go/analysis facts design, cut down to what
// the suite needs on the standard library alone:
//
//   - A Fact is a pointer to a gob-serializable struct with an AFact
//     marker method. Each analyzer declares its fact types up front
//     (Analyzer.FactTypes); facts are namespaced by their Go type, so
//     analyzers cannot observe each other's facts by accident.
//   - Facts attach to a types.Object through Pass.ExportObjectFact and
//     Pass.ImportObjectFact.
//   - Between packages, facts travel as a gob stream: the driver pipes
//     each package's encoded set to its dependents, which it analyzes
//     later in topological order. A package's encoded set re-exports
//     every fact it imported, so the flow is transitively closed without
//     every package reading every ancestor.
//
// Objects are named across the serialization boundary by a miniature
// object path: "Name" for a package-level object, "Type.Method" for a
// method. Facts on objects this scheme cannot name (locals, struct
// fields, anonymous types) are silently confined to their own package —
// exactly the objects no other package could reference anyway. Facts
// whose object does not resolve at decode time (e.g. a stream encoded
// against an older version of the package) are dropped, not an error:
// a fact is advice, and undeliverable advice is not a failure.

// A Fact is an analyzer-defined datum attached to an object.
// The concrete type must be a pointer to a gob-encodable struct and
// must be declared in the producing analyzer's FactTypes.
type Fact interface {
	// AFact is a marker method; it does nothing.
	AFact()
}

// factKey identifies one stored fact: its object plus the fact's
// concrete type.
type factKey struct {
	obj types.Object
	t   reflect.Type
}

// FactSet holds every fact known while analyzing one package: the facts
// decoded from the package's dependencies plus the facts its own
// analyzers export. The zero value is not usable; call
// NewFactSet.
//
// A FactSet is not safe for concurrent use; drivers run analyzers over
// a package sequentially.
type FactSet struct {
	m map[factKey]Fact
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[factKey]Fact)}
}

// putObject records fact about obj, replacing any previous fact of the
// same concrete type.
func (s *FactSet) putObject(obj types.Object, fact Fact) {
	s.m[factKey{obj: obj, t: reflect.TypeOf(fact)}] = fact
}

// getObject copies the stored fact of fact's concrete type about obj
// into fact and reports whether one was found.
func (s *FactSet) getObject(obj types.Object, fact Fact) bool {
	stored, ok := s.m[factKey{obj: obj, t: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	copyFact(stored, fact)
	return true
}

// Len returns the number of stored facts (diagnostic use only).
func (s *FactSet) Len() int { return len(s.m) }

// copyFact copies the payload of src into the struct dst points at.
// Both must be pointers to the same concrete struct type.
func copyFact(src, dst Fact) {
	sv, dv := reflect.ValueOf(src), reflect.ValueOf(dst)
	if sv.Type() != dv.Type() {
		panic(fmt.Sprintf("analysis: fact type mismatch: %T vs %T", src, dst))
	}
	dv.Elem().Set(sv.Elem())
}

// wireFact is the serialized form of one fact. Object is the mini
// object path within PkgPath's package.
type wireFact struct {
	PkgPath string
	Object  string
	Fact    Fact
}

// Encode serializes the whole set — imported and locally exported facts
// alike, so the stream a dependent reads is transitively complete — in
// a deterministic order. Facts attached to objects the path scheme
// cannot name are skipped.
func (s *FactSet) Encode() ([]byte, error) {
	var wire []wireFact
	for k, f := range s.m {
		path, ok := objectPath(k.obj)
		if !ok {
			continue
		}
		wire = append(wire, wireFact{PkgPath: k.obj.Pkg().Path(), Object: path, Fact: f})
	}
	sort.Slice(wire, func(i, j int) bool {
		a, b := wire[i], wire[j]
		if a.PkgPath != b.PkgPath {
			return a.PkgPath < b.PkgPath
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return reflect.TypeOf(a.Fact).String() < reflect.TypeOf(b.Fact).String()
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode merges one encoded fact stream into the set. lookup resolves a
// package path to its type-checked package; it must return the same
// *types.Package the current package's type information references, or
// object identity breaks. Facts in packages lookup cannot resolve,
// or about objects absent from the resolved package's scope, are
// dropped silently (see the file comment). An empty stream is a
// complete, empty fact set.
func (s *FactSet) Decode(data []byte, lookup func(path string) (*types.Package, error)) error {
	if len(data) == 0 {
		return nil
	}
	var wire []wireFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
		return fmt.Errorf("analysis: decoding facts: %w", err)
	}
	for _, w := range wire {
		if w.Fact == nil {
			continue
		}
		pkg, err := lookup(w.PkgPath)
		if err != nil || pkg == nil {
			continue
		}
		if obj := resolveObjectPath(pkg, w.Object); obj != nil {
			s.putObject(obj, w.Fact)
		}
	}
	return nil
}

// objectPath names obj relative to its package: "Name" for a
// package-level object, "Type.Method" for a method of a package-level
// named type. Everything else is unnameable (ok=false).
func objectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			named := NamedOf(sig.Recv().Type())
			if named == nil || named.Obj().Pkg() != fn.Pkg() {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Name(), true
	}
	return "", false
}

// resolveObjectPath is objectPath's inverse over a (possibly
// export-data-backed) package, or nil.
func resolveObjectPath(pkg *types.Package, path string) types.Object {
	name, method, isMethod := strings.Cut(path, ".")
	obj := pkg.Scope().Lookup(name)
	if obj == nil || !isMethod {
		return obj
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := types.Unalias(tn.Type()).(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			return m
		}
	}
	return nil
}

// registeredFacts guards against double gob registration when several
// drivers (or tests) initialize the same suite in one process.
var (
	registeredMu    sync.Mutex
	registeredFacts = map[reflect.Type]bool{}
)

// RegisterFactTypes registers every declared fact type of the given
// analyzers with gob. Drivers call it once before any Decode/Encode.
func RegisterFactTypes(analyzers []*Analyzer) {
	registeredMu.Lock()
	defer registeredMu.Unlock()
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			if registeredFacts[t] {
				continue
			}
			registeredFacts[t] = true
			gob.Register(f)
		}
	}
}
