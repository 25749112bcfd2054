package ddg

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ncdrf/internal/machine"
)

func buildChain(t *testing.T) *Graph {
	t.Helper()
	g := New("chain", 10)
	l := g.AddNode(LOAD, "L1")
	m := g.AddNode(FMUL, "M2")
	a := g.AddNode(FADD, "A3")
	s := g.AddNode(STORE, "S4")
	g.Flow(l, m)
	g.Flow(m, a)
	g.Flow(a, s)
	return g
}

func TestAddNodeAndLookups(t *testing.T) {
	g := buildChain(t)
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if n := g.NodeByName("M2"); n == nil || n.Op != FMUL {
		t.Fatalf("NodeByName(M2) = %v", n)
	}
	if n := g.NodeByName("missing"); n != nil {
		t.Fatalf("NodeByName(missing) = %v, want nil", n)
	}
	if got := g.Node(0).String(); got != "L1:load" {
		t.Fatalf("Node(0).String() = %q", got)
	}
	if g.CountOps(LOAD) != 1 || g.CountOps(STORE) != 1 || g.CountOps(FMUL) != 1 {
		t.Fatal("CountOps wrong")
	}
	if g.MemOps() != 2 {
		t.Fatalf("MemOps = %d, want 2", g.MemOps())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	g := New("dup", 1)
	g.AddNode(FADD, "A")
	g.AddNode(FMUL, "A")
}

func TestAddEdgeValidation(t *testing.T) {
	g := New("v", 1)
	s := g.AddNode(STORE, "S")
	a := g.AddNode(FADD, "A")
	l := g.AddNode(LOAD, "L")

	if err := g.AddEdge(Edge{From: s, To: a, Kind: Flow}); err == nil {
		t.Fatal("flow edge from store must be rejected")
	}
	if err := g.AddEdge(Edge{From: a, To: s, Kind: Flow}); err != nil {
		t.Fatalf("flow into store should be fine: %v", err)
	}
	if err := g.AddEdge(Edge{From: a, To: l, Kind: Mem}); err == nil {
		t.Fatal("mem edge from non-memory op must be rejected")
	}
	if err := g.AddEdge(Edge{From: s, To: l, Kind: Mem, Distance: 1}); err != nil {
		t.Fatalf("store->load mem edge should be fine: %v", err)
	}
	if err := g.AddEdge(Edge{From: a, To: 99, Kind: Flow}); err == nil {
		t.Fatal("edge to missing node must be rejected")
	}
	if err := g.AddEdge(Edge{From: a, To: s, Kind: Flow, Distance: -1}); err == nil {
		t.Fatal("negative distance must be rejected")
	}
}

func TestConsumersDeduplicated(t *testing.T) {
	g := New("c", 1)
	a := g.AddNode(FADD, "A")
	b := g.AddNode(FMUL, "B")
	c := g.AddNode(FMUL, "C")
	g.Flow(a, b)
	g.Flow(a, b) // same consumer twice (two operands)
	g.FlowD(a, c, 1)
	got := g.Consumers(a)
	if len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Consumers = %v", got)
	}
}

func TestValidateRejectsZeroDistanceCycle(t *testing.T) {
	g := New("cyc", 1)
	a := g.AddNode(FADD, "A")
	b := g.AddNode(FMUL, "B")
	g.Flow(a, b)
	g.Flow(b, a)
	if err := g.Validate(); err == nil {
		t.Fatal("zero-distance cycle must fail validation")
	}
	// With distance 1 on the back edge it becomes a legal recurrence.
	g2 := New("rec", 1)
	a2 := g2.AddNode(FADD, "A")
	b2 := g2.AddNode(FMUL, "B")
	g2.Flow(a2, b2)
	g2.FlowD(b2, a2, 1)
	if err := g2.Validate(); err != nil {
		t.Fatalf("legal recurrence rejected: %v", err)
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	if err := New("empty", 1).Validate(); err == nil {
		t.Fatal("empty graph must fail validation")
	}
}

func TestTopoOrderRespectsZeroDistanceEdges(t *testing.T) {
	g := buildChain(t)
	g.FlowD(3-1, 0, 2) // loop-carried back edge must not break ordering
	order := g.TopoOrder()
	if len(order) != g.NumNodes() {
		t.Fatalf("topo order has %d nodes, want %d", len(order), g.NumNodes())
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if e.Distance == 0 && pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %v violated by topo order %v", e, order)
		}
	}
}

func TestSCCs(t *testing.T) {
	g := New("scc", 1)
	a := g.AddNode(FADD, "A")
	b := g.AddNode(FMUL, "B")
	c := g.AddNode(FADD, "C")
	d := g.AddNode(LOAD, "D")
	g.Flow(a, b)
	g.FlowD(b, a, 1) // {A,B} is one SCC
	g.Flow(b, c)
	g.Flow(d, a)
	comps := g.SCCs()
	if len(comps) != 3 {
		t.Fatalf("SCCs = %v, want 3 components", comps)
	}
	var sizes []int
	for _, comp := range comps {
		sizes = append(sizes, len(comp))
	}
	total := 0
	foundPair := false
	for i, comp := range comps {
		total += len(comp)
		if len(comp) == 2 {
			foundPair = true
			if comp[0] != a || comp[1] != b {
				t.Fatalf("pair component = %v, want [A B]", comp)
			}
		}
		_ = i
	}
	if total != 4 || !foundPair {
		t.Fatalf("components %v sizes %v", comps, sizes)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildChain(t)
	g.Node(0).Sym = "x"
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	c.AddNode(FADD, "extra")
	c.Node(0).Sym = "y"
	if g.NumNodes() != 4 || g.Node(0).Sym != "x" {
		t.Fatal("mutating clone affected original")
	}
	if c.NodeByName("L1") == nil {
		t.Fatal("clone lost name index")
	}
}

// graphState renders everything a graph holds: its encoding, every
// node's spill slot, and both adjacency indexes.
func graphState(g *Graph) string {
	var b bytes.Buffer
	if err := g.Encode(&b); err != nil {
		panic(err)
	}
	for id := 0; id < g.NumNodes(); id++ {
		fmt.Fprintf(&b, "%d slot %d out %v in %v\n", id, g.Node(id).SpillSlot, g.OutEdgeIndices(id), g.InEdgeIndices(id))
	}
	return b.String()
}

// rebuild is Clone as it stood before the bulk copy: node by node
// through AddNode, edge by edge through AddEdge.
func rebuild(g *Graph) *Graph {
	c := New(g.LoopName, g.Trips)
	for _, n := range g.Nodes() {
		id := c.AddNode(n.Op, n.Name)
		c.Node(id).Sym = n.Sym
		c.Node(id).SpillSlot = n.SpillSlot
	}
	for i := 0; i < g.NumEdges(); i++ {
		c.MustAddEdge(g.Edge(i))
	}
	return c
}

// TestCloneIndependence mutates either side of a clone through every
// graph mutator and checks that the other side is unchanged, and that
// the mutated side ends up exactly like the same mutation applied to a
// node-by-node rebuild — so the bulk copy's shared adjacency backing
// never lets one list's growth overwrite its neighbour's.
func TestCloneIndependence(t *testing.T) {
	mutations := []struct {
		name string
		f    func(g *Graph)
	}{
		{"AddNode", func(g *Graph) { g.AddNode(FADD, "extra") }},
		{"AddEdge", func(g *Graph) { g.FlowD(2, 1, 1); g.Flow(0, 2) }},
		{"AddNode+AddEdge", func(g *Graph) { id := g.AddNode(FMUL, ""); g.Flow(1, id); g.Flow(id, 2) }},
		{"RewriteEdges", func(g *Graph) {
			g.RewriteEdges(func(edges []Edge) []Edge {
				edges[0].Distance = 2
				return append(edges, Edge{From: 2, To: 0, Kind: Flow, Distance: 1}, Edge{From: 1, To: 2, Kind: Flow})
			})
		}},
		{"node fields", func(g *Graph) { g.Node(1).Sym = "y"; g.Node(1).SpillSlot = 3; g.Node(2).Op = FSUB }},
	}
	graphs := map[string]func() *Graph{
		"chain":  func() *Graph { return buildChain(t) },
		"random": func() *Graph { return randomDAG(rand.New(rand.NewSource(7)), 12) },
	}
	for gname, build := range graphs {
		for _, mut := range mutations {
			for _, side := range []string{"clone", "original"} {
				g := build()
				c := g.Clone()
				if graphState(c) != graphState(g) {
					t.Fatalf("%s: clone differs from its original", gname)
				}
				before := graphState(g)
				target, other := c, g
				if side == "original" {
					target, other = g, c
				}
				ref := rebuild(g)
				mut.f(ref)
				mut.f(target)
				if graphState(other) != before {
					t.Fatalf("%s: %s on the %s changed the other side", gname, mut.name, side)
				}
				if got, want := graphState(target), graphState(ref); got != want {
					t.Fatalf("%s: %s on the %s gave\n%s\nwant\n%s", gname, mut.name, side, got, want)
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := buildChain(t)
	g.Node(0).Sym = "x"
	g.MustAddEdge(Edge{From: 3, To: 0, Kind: Mem, Distance: 1})
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v\ninput:\n%s", err, buf.String())
	}
	if back.LoopName != g.LoopName || back.Trips != g.Trips {
		t.Fatalf("header mismatch: %s/%d", back.LoopName, back.Trips)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("shape mismatch after round trip")
	}
	if back.Node(0).Sym != "x" {
		t.Fatal("sym lost in round trip")
	}
	for i, e := range back.Edges() {
		if e != g.Edge(i) {
			t.Fatalf("edge %d mismatch: %v vs %v", i, e, g.Edge(i))
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"",
		"node A fadd",
		"loop x trips z",
		"loop x trips 1\nnode A bogus",
		"loop x trips 1\nnode A fadd\nnode A fadd",
		"loop x trips 1\nnode A fadd\nedge A B flow 0",
		"loop x trips 1\nnode A fadd\nnode B fmul\nedge A B weird 0",
		"loop x trips 1\nnode A fadd\nnode B fmul\nedge A B flow x",
		"loop x trips 1\nwhat A",
		"edge A B flow 0",
	}
	for i, in := range bad {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d: Decode(%q) succeeded, want error", i, in)
		}
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\nloop l trips 5\n# another\nnode A fadd\n\nnode B store\nedge A B flow 0\n"
	g, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || g.Trips != 5 {
		t.Fatalf("decoded %v", g)
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildChain(t)
	g.MustAddEdge(Edge{From: 3, To: 0, Kind: Mem, Distance: 1})
	var buf bytes.Buffer
	if err := g.DOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "\"L1\"", "style=dashed", "d=1", "style=solid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestOpCodeProperties(t *testing.T) {
	if FADD.FUKind() != machine.Adder || FSUB.FUKind() != machine.Adder || CONV.FUKind() != machine.Adder {
		t.Fatal("adder ops misrouted")
	}
	if FMUL.FUKind() != machine.Multiplier || FDIV.FUKind() != machine.Multiplier {
		t.Fatal("multiplier ops misrouted")
	}
	if LOAD.FUKind() != machine.MemPort || STORE.FUKind() != machine.MemPort {
		t.Fatal("memory ops misrouted")
	}
	if STORE.ProducesValue() {
		t.Fatal("store must not produce a value")
	}
	if !LOAD.ProducesValue() || !FADD.ProducesValue() {
		t.Fatal("load/fadd must produce values")
	}
	for op := OpCode(0); op < numOpCodes; op++ {
		back, err := ParseOpCode(op.String())
		if err != nil || back != op {
			t.Fatalf("ParseOpCode(%q) = %v, %v", op.String(), back, err)
		}
	}
	if _, err := ParseOpCode("nope"); err == nil {
		t.Fatal("ParseOpCode must reject unknown mnemonics")
	}
	if OpCode(-1).Valid() || OpCode(99).Valid() {
		t.Fatal("Valid() wrong for out-of-range opcodes")
	}
}

// randomDAG builds a random acyclic distance-0 graph, optionally with
// loop-carried back edges, for property tests.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := New("rand", 1)
	ops := []OpCode{FADD, FSUB, FMUL, FDIV, LOAD, CONV}
	for i := 0; i < n; i++ {
		g.AddNode(ops[r.Intn(len(ops))], "")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(4) == 0 {
				g.Flow(i, j) // forward edges only: acyclic at distance 0
			}
		}
	}
	// A few loop-carried back edges.
	for k := 0; k < n/3; k++ {
		from := r.Intn(n)
		to := r.Intn(n)
		g.FlowD(from, to, 1+r.Intn(2))
	}
	return g
}

func TestPropertyTopoOrderAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(20))
		if err := g.Validate(); err != nil {
			return false
		}
		order := g.TopoOrder()
		if len(order) != g.NumNodes() {
			return false
		}
		pos := make([]int, g.NumNodes())
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if e.Distance == 0 && pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySCCPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(15))
		comps := g.SCCs()
		seen := map[int]int{}
		for ci, comp := range comps {
			for _, id := range comp {
				if _, dup := seen[id]; dup {
					return false // node in two components
				}
				seen[id] = ci
			}
		}
		return len(seen) == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodeDecodeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(12))
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			return false
		}
		back, err := Decode(&buf)
		if err != nil {
			return false
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for i := range g.Nodes() {
			if back.Node(i).Op != g.Node(i).Op {
				return false
			}
		}
		for i, e := range back.Edges() {
			if e != g.Edge(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeIndicesMatchEdgeCopies pins the allocation-free adjacency
// accessors to the copying ones: same edges, same order, and zero
// allocations per call.
func TestEdgeIndicesMatchEdgeCopies(t *testing.T) {
	g := buildChain(t)
	g.FlowD(g.NodeByName("A3").ID, g.NodeByName("M2").ID, 1)
	for id := 0; id < g.NumNodes(); id++ {
		outs := g.OutEdges(id)
		idx := g.OutEdgeIndices(id)
		if len(outs) != len(idx) {
			t.Fatalf("node %d: out lengths differ", id)
		}
		for i, ei := range idx {
			if g.Edge(ei) != outs[i] {
				t.Fatalf("node %d out[%d]: %+v != %+v", id, i, g.Edge(ei), outs[i])
			}
		}
		ins := g.InEdges(id)
		inIdx := g.InEdgeIndices(id)
		if len(ins) != len(inIdx) {
			t.Fatalf("node %d: in lengths differ", id)
		}
		for i, ei := range inIdx {
			if g.Edge(ei) != ins[i] {
				t.Fatalf("node %d in[%d]: %+v != %+v", id, i, g.Edge(ei), ins[i])
			}
		}
	}
	if per := testing.AllocsPerRun(100, func() {
		_ = g.OutEdgeIndices(1)
		_ = g.InEdgeIndices(1)
	}); per != 0 {
		t.Fatalf("index accessors allocate %.1f/call, want 0", per)
	}
}

// TestRewriteEdgesRebuildsAdjacency checks the batch-edit primitive: an
// in-place substitution plus appended edges must leave the graph exactly
// as if it had been constructed with the edited list via AddEdge —
// including the ascending-by-edge-index adjacency lists the scheduler
// iterates.
func TestRewriteEdgesRebuildsAdjacency(t *testing.T) {
	g := buildChain(t)
	l, m, a, s := g.NodeByName("L1").ID, g.NodeByName("M2").ID, g.NodeByName("A3").ID, g.NodeByName("S4").ID
	// Redirect M2's input to come from A3 at distance 1 (a recurrence)
	// and append a fresh L1->A3 edge.
	g.RewriteEdges(func(edges []Edge) []Edge {
		edges[0] = Edge{From: a, To: m, Kind: Flow, Distance: 1}
		return append(edges, Edge{From: l, To: a, Kind: Flow})
	})

	want := New("chain", 10)
	for _, n := range g.Nodes() {
		want.AddNode(n.Op, n.Name)
	}
	want.MustAddEdge(Edge{From: a, To: m, Kind: Flow, Distance: 1})
	want.MustAddEdge(Edge{From: m, To: a, Kind: Flow})
	want.MustAddEdge(Edge{From: a, To: s, Kind: Flow})
	want.MustAddEdge(Edge{From: l, To: a, Kind: Flow})

	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("edge count %d, want %d", g.NumEdges(), want.NumEdges())
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.Edge(i) != want.Edge(i) {
			t.Fatalf("edge %d: %+v, want %+v", i, g.Edge(i), want.Edge(i))
		}
	}
	for id := 0; id < g.NumNodes(); id++ {
		gi, wi := g.OutEdgeIndices(id), want.OutEdgeIndices(id)
		if len(gi) != len(wi) {
			t.Fatalf("node %d out-degree %d, want %d", id, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] {
				t.Fatalf("node %d out adjacency %v, want %v", id, gi, wi)
			}
		}
		gi, wi = g.InEdgeIndices(id), want.InEdgeIndices(id)
		if len(gi) != len(wi) {
			t.Fatalf("node %d in-degree %d, want %d", id, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] {
				t.Fatalf("node %d in adjacency %v, want %v", id, gi, wi)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteEdgesPanicsOnInvalidEdge: the batch editor enforces the
// same rules as AddEdge, loudly.
func TestRewriteEdgesPanicsOnInvalidEdge(t *testing.T) {
	g := buildChain(t)
	s := g.NodeByName("S4").ID
	defer func() {
		if recover() == nil {
			t.Fatal("RewriteEdges accepted a flow edge from a store")
		}
	}()
	g.RewriteEdges(func(edges []Edge) []Edge {
		// Stores produce no value; a flow edge from one must panic.
		return append(edges, Edge{From: s, To: 0, Kind: Flow})
	})
}
