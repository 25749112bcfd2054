package lir

import "testing"

// FuzzLIRParse holds the LIR front end, which reads user source, to
// three properties: Parse∘Format is a fixed point on whatever Parse
// accepts, Lower never panics, and a graph it lowers passes Validate.
// Seeds are the package's test programs and the keyword-shaped
// statements Parse once misread; testdata/fuzz holds the minimized
// crashers.
func FuzzLIRParse(f *testing.F) {
	for _, src := range []string{
		daxpySrc,
		"loop mm trips 10\nL1: v1 = load a\nS1: store b, v1\nL2: v2 = load b\nstore c, v2\nmem S1 L2 1\n",
		"loop l trips 2\nL1: v = load x\nS1: store stack3, v\nw = load stack3\nstore y, w\nmem S1 L1 1\n",
		"loop r trips 8\ninvariant k\nv = fadd v@1, k\nstore y, v\n",
		"loop k trips 1\nstored = fadd v1, v1\n",
		"loop k trips 1\ninvariant=fadd v1, v1\n",
		"loop k trips 1\nmem=fadd v1, v1\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		once := p.Format()
		back, err := Parse(once)
		if err != nil {
			t.Fatalf("re-parsing the format of an accepted program: %v\n%s", err, once)
		}
		if twice := back.Format(); twice != once {
			t.Fatalf("format is not a fixed point:\n%s\nthen:\n%s", once, twice)
		}
		if g, err := Lower(p); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("lowered graph fails validation: %v\n%s", err, src)
			}
		}
	})
}

// TestParseKeywordShapedDestinations pins the statements Parse misread
// while it matched "store" as a prefix and took directive words as
// destinations: a destination that starts with "store" is an ordinary
// value, and a directive word is no destination or label, since Format
// would write it where a re-parse reads a directive.
func TestParseKeywordShapedDestinations(t *testing.T) {
	t.Run("store-prefixed", func(t *testing.T) {
		p, err := Parse("loop k trips 1\nstored = fadd v1, v1\n")
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Stmts[0]; st.Dest != "stored" || st.Op != "fadd" {
			t.Fatalf("parsed %+v, want stored = fadd", st)
		}
	})
	for name, src := range map[string]string{
		"invariant": "loop k trips 1\ninvariant=fadd v1, v1\n",
		"mem":       "loop k trips 1\nmem=fadd v1, v1\n",
		"loop":      "loop k trips 1\nloop=fadd v1, v1\n",
		"store":     "loop k trips 1\nstore=fadd v1, v1\n",
		"label":     "loop k trips 1\nmem: v = fadd v1, v1\n",
	} {
		t.Run(name, func(t *testing.T) {
			if p, err := Parse(src); err == nil {
				t.Fatalf("Parse(%q) accepted a directive word, formatting as:\n%s", src, p.Format())
			}
		})
	}
}

// TestParseRejectsMisplacedDirectives pins two shapes Parse once
// accepted: a mem directive before the loop header (invariants and
// statements there were already rejected), and an invariant name that
// is no identifier, which no operand could ever reference.
func TestParseRejectsMisplacedDirectives(t *testing.T) {
	for name, src := range map[string]string{
		"mem-before-header":   "mem a b 1\nloop x trips 1\na: v = load x\nb: store y, v\n",
		"invariant-not-ident": "loop k trips 1\ninvariant 1x a=b\nv = fadd v1, v1\n",
	} {
		t.Run(name, func(t *testing.T) {
			p, err := Parse(src)
			if err == nil {
				t.Fatalf("Parse(%q) accepted it, formatting as:\n%s", src, p.Format())
			}
			if _, ok := err.(*ParseError); !ok {
				t.Fatalf("Parse(%q) = %T %v, want a *ParseError", src, err, err)
			}
		})
	}
}
