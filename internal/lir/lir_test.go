package lir

import (
	"strings"
	"testing"

	"ncdrf/internal/ddg"
)

const daxpySrc = `
; daxpy: y(i) = y(i) + a*x(i)
loop daxpy trips 1000
invariant a
v1 = load x
v2 = fmul a, v1
v3 = load y
v4 = fadd v2, v3
store y, v4
`

func TestParseDaxpy(t *testing.T) {
	p, err := Parse(daxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "daxpy" || p.Trips != 1000 {
		t.Fatalf("header = %s/%d", p.Name, p.Trips)
	}
	if len(p.Invariants) != 1 || p.Invariants[0] != "a" {
		t.Fatalf("invariants = %v", p.Invariants)
	}
	if len(p.Stmts) != 5 {
		t.Fatalf("stmts = %d", len(p.Stmts))
	}
	if p.Stmts[1].Op != "fmul" || len(p.Stmts[1].Args) != 2 {
		t.Fatalf("stmt[1] = %+v", p.Stmts[1])
	}
	if p.Stmts[4].Op != "store" || p.Stmts[4].Sym != "y" {
		t.Fatalf("stmt[4] = %+v", p.Stmts[4])
	}
}

func TestLowerDaxpy(t *testing.T) {
	g, err := Compile(daxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// a is invariant: fmul has exactly one incoming edge (from v1).
	mul := g.NodeByName("v2")
	if mul == nil {
		t.Fatal("no v2 node")
	}
	in := g.InEdges(mul.ID)
	if len(in) != 1 || g.Node(in[0].From).Name != "v1" {
		t.Fatalf("v2 in-edges = %v", in)
	}
	// The store consumes v4.
	st := g.NodeByName("st0")
	if st == nil || st.Op != ddg.STORE {
		t.Fatal("missing synthesized store node st0")
	}
	if in := g.InEdges(st.ID); len(in) != 1 || g.Node(in[0].From).Name != "v4" {
		t.Fatalf("store in-edges = %v", in)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecurrenceAtDistance(t *testing.T) {
	src := `
loop acc trips 100
v1 = load x
s = fadd s@1, v1
store out, s
`
	g, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s := g.NodeByName("s")
	found := false
	for _, e := range g.InEdges(s.ID) {
		if e.From == s.ID && e.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("self-recurrence edge missing")
	}
}

func TestLabelsAndMemDeps(t *testing.T) {
	src := `
loop mm trips 10
L1: v1 = load a
S1: store b, v1
L2: v2 = load b
store c, v2
mem S1 L2 1
`
	g, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	s1 := g.NodeByName("S1")
	l2 := g.NodeByName("L2")
	if s1 == nil || l2 == nil {
		t.Fatal("labels not applied")
	}
	found := false
	for _, e := range g.OutEdges(s1.ID) {
		if e.To == l2.ID && e.Kind == ddg.Mem && e.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("mem dependence missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                   // no header
		"loop x trips z\n",                   // bad trips
		"loop x trips 1\n",                   // no statements
		"v = fadd a, b\nloop x trips 1\n",    // stmt before header
		"loop x trips 1\nloop y trips 2\n",   // duplicate header
		"loop x trips 1\nv = bogus a, b\n",   // unknown op
		"loop x trips 1\nv = fadd a\n",       // arity
		"loop x trips 1\nv = fadd a, b, c\n", // arity
		"loop x trips 1\nstore x\n",          // store arity
		"loop x trips 1\n1v = load x\n",      // bad dest
		"loop x trips 1\nv = load 9x\n",      // bad sym
		"loop x trips 1\ninvariant\n",        // empty invariant
		"loop x trips 1\nmem a b\n",          // mem arity
		"loop x trips 1\nmem a b -1\n",       // bad mem distance
		"loop x trips 1\nv = fadd a@0, b\n",  // bad @distance
		"loop x trips 1\nv = fadd a@x, b\n",  // bad @distance
		"loop x trips 1\nwhatever\n",         // not a statement
		"loop x trips 1\n:: v = fadd a, b\n", // bad label
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: Parse succeeded on %q", i, src)
		}
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []string{
		"loop x trips 1\nv = fadd w, 1.0\n",                            // undefined w
		"loop x trips 1\nv = load x\nv = load y\n",                     // double def
		"loop x trips 1\ninvariant k\nk = load x\n",                    // assign to invariant
		"loop x trips 1\ninvariant k\nv = fadd k@1, 1\n",               // invariant with distance
		"loop x trips 1\nv = fadd u, 1.0\nu = load x\n",                // use before def, no @
		"loop x trips 1\nA: v1 = load x\nA: v2 = load y\n",             // duplicate label
		"loop x trips 1\nL: v = load x\nmem L Q 0\n",                   // unknown mem target
		"loop x trips 1\nL: v = load x\nmem Q L 0\n",                   // unknown mem source
		"loop x trips 1\nL: v = load x\nM: w = fadd v, 1\nmem L M 0\n", // mem edge to non-mem op
	}
	for i, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("case %d: Compile succeeded on %q", i, src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p, err := Parse(daxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Format()
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if p2.Name != p.Name || len(p2.Stmts) != len(p.Stmts) {
		t.Fatal("round trip changed program shape")
	}
	g1, _ := Lower(p)
	g2, err := Lower(p2)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("round trip changed graph shape")
	}
}

func TestFormatWithLabelsAndMem(t *testing.T) {
	src := "loop l trips 2\nL1: v = load x\nS1: store stack3, v\nw = load stack3\nstore y, w\nmem S1 L1 1\n"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Format()
	for _, want := range []string{"L1: v = load x", "S1: store stack3, v", "mem S1 L1 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestSpillSlotRecognition(t *testing.T) {
	g := MustCompile("loop l trips 1\nv = load stack12\nstore out, v\n")
	n := g.NodeByName("v")
	if n.SpillSlot != 12 {
		t.Fatalf("SpillSlot = %d, want 12", n.SpillSlot)
	}
	g2 := MustCompile("loop l trips 1\nv = load stacky\nstore out, v\n")
	if g2.NodeByName("v").SpillSlot != -1 {
		t.Fatal("stacky must not be a spill slot")
	}
}

// lowered parses and lowers src without the stack-spill elimination
// Compile applies, so the pass's tests see the spill pairs.
func lowered(t *testing.T, src string) *ddg.Graph {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Lower(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEliminateStackSpills(t *testing.T) {
	// v1 -> (spill store) ... (reload) -> consumer. After elimination the
	// graph is v1 -> v4 directly.
	src := `
loop spilled trips 50
v1 = load x
S: store stack0, v1
R: v2 = load stack0
v4 = fadd v2, 1.0
store y, v4
`
	g := lowered(t, src)
	if g.NumNodes() != 5 {
		t.Fatalf("pre nodes = %d", g.NumNodes())
	}
	out, removed := EliminateStackSpills(g)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if out.NumNodes() != 3 {
		t.Fatalf("post nodes = %d, want 3", out.NumNodes())
	}
	if n := MustCompile(src).NumNodes(); n != 3 {
		t.Fatalf("Compile keeps %d nodes, want the pass's 3", n)
	}
	v1 := out.NodeByName("v1")
	v4 := out.NodeByName("v4")
	found := false
	for _, e := range out.OutEdges(v1.ID) {
		if e.To == v4.ID && e.Kind == ddg.Flow && e.Distance == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("reconnection edge v1->v4 missing")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEliminateStackSpillsComposesDistance(t *testing.T) {
	// Producer feeds the spill store at distance 1 (value from previous
	// iteration is spilled), reload consumed at distance 0: reconnected
	// distance must be 1.
	src := `
loop d trips 10
v1 = load x
S: store stack1, v1@1
R: v2 = load stack1
v3 = fadd v2, 1.0
store y, v3
`
	g := lowered(t, src)
	out, removed := EliminateStackSpills(g)
	if removed != 2 {
		t.Fatalf("removed = %d", removed)
	}
	v1 := out.NodeByName("v1")
	v3 := out.NodeByName("v3")
	found := false
	for _, e := range out.OutEdges(v1.ID) {
		if e.To == v3.ID && e.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected distance-1 reconnection, edges: %v", out.Edges())
	}
}

func TestEliminateStackSpillsLeavesUnmatched(t *testing.T) {
	// Load from a slot never stored in this loop: untouched.
	src := `
loop u trips 10
v1 = load stack7
v2 = fadd v1, 1.0
store y, v2
`
	g := lowered(t, src)
	out, removed := EliminateStackSpills(g)
	if removed != 0 {
		t.Fatalf("removed = %d, want 0", removed)
	}
	if out.NumNodes() != g.NumNodes() {
		t.Fatal("unmatched spill access must be preserved")
	}
}

func TestEliminateStackSpillsMultipleLoads(t *testing.T) {
	src := `
loop m trips 10
v1 = load x
S: store stack2, v1
R1: a = load stack2
R2: b = load stack2
c = fadd a, b
store y, c
`
	g := lowered(t, src)
	out, removed := EliminateStackSpills(g)
	if removed != 3 {
		t.Fatalf("removed = %d, want 3 (1 store + 2 loads)", removed)
	}
	v1 := out.NodeByName("v1")
	c := out.NodeByName("c")
	edges := 0
	for _, e := range out.OutEdges(v1.ID) {
		if e.To == c.ID {
			edges++
		}
	}
	if edges != 2 {
		t.Fatalf("expected two reconnection edges (both operands), got %d", edges)
	}
}
