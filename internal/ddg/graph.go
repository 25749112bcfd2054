package ddg

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Graph is a loop-body data-dependence graph. The zero value is an empty
// graph ready to use.
type Graph struct {
	// LoopName identifies the source loop (benchmark/kernel name).
	LoopName string
	// Trips is the estimated number of iterations the loop executes at
	// run time; used to weight dynamic (cycle-based) statistics. Zero
	// means unknown and is treated as 1 by consumers.
	Trips int64

	nodes  []*Node
	edges  []Edge
	out    [][]int // edge indices by From
	in     [][]int // edge indices by To
	byName map[string]int
}

// New returns an empty graph with the given loop name and trip count.
func New(name string, trips int64) *Graph {
	return &Graph{LoopName: name, Trips: trips}
}

// AddNode appends an operation and returns its assigned ID. Names, when
// non-empty, must be unique; a duplicate name panics since it indicates a
// construction bug.
func (g *Graph) AddNode(op OpCode, name string) int {
	if !op.Valid() {
		panic(fmt.Sprintf("ddg: AddNode with invalid opcode %d", int(op)))
	}
	if name != "" {
		if g.byName == nil {
			g.byName = make(map[string]int)
		}
		if _, dup := g.byName[name]; dup {
			panic(fmt.Sprintf("ddg: duplicate node name %q in loop %q", name, g.LoopName))
		}
		g.byName[name] = len(g.nodes)
	}
	n := &Node{ID: len(g.nodes), Op: op, Name: name, SpillSlot: -1}
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n.ID
}

// AddEdge appends a dependence edge. Node IDs must exist, the distance
// must be non-negative, and flow edges must originate at a value-producing
// operation.
func (g *Graph) AddEdge(e Edge) error {
	if err := g.checkEdge(e); err != nil {
		return err
	}
	idx := len(g.edges)
	g.edges = append(g.edges, e)
	g.out[e.From] = append(g.out[e.From], idx)
	g.in[e.To] = append(g.in[e.To], idx)
	return nil
}

// MustAddEdge is AddEdge but panics on error; for hand-built graphs.
func (g *Graph) MustAddEdge(e Edge) {
	if err := g.AddEdge(e); err != nil {
		panic(err)
	}
}

// Flow is shorthand for adding an intra-iteration flow edge from->to.
func (g *Graph) Flow(from, to int) { g.MustAddEdge(Edge{From: from, To: to, Kind: Flow}) }

// FlowD adds a flow edge with loop-carried distance d.
func (g *Graph) FlowD(from, to, d int) {
	g.MustAddEdge(Edge{From: from, To: to, Kind: Flow, Distance: d})
}

// NumNodes returns the number of operations.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// NodeByName returns the node with the given name, or nil.
func (g *Graph) NodeByName(name string) *Node {
	if id, ok := g.byName[name]; ok {
		return g.nodes[id]
	}
	return nil
}

// Nodes returns the nodes in ID order. The slice is shared; callers must
// not modify it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge { return append([]Edge(nil), g.edges...) }

// Edge returns the edge with the given index.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// OutEdges returns the edges leaving node id.
func (g *Graph) OutEdges(id int) []Edge {
	res := make([]Edge, 0, len(g.out[id]))
	for _, ei := range g.out[id] {
		res = append(res, g.edges[ei])
	}
	return res
}

// InEdges returns the edges entering node id.
func (g *Graph) InEdges(id int) []Edge {
	res := make([]Edge, 0, len(g.in[id]))
	for _, ei := range g.in[id] {
		res = append(res, g.edges[ei])
	}
	return res
}

// OutEdgeIndices returns the indices (into Edge) of the edges leaving
// node id, in ascending edge order. The slice is shared with the graph;
// callers must not modify it. It is the allocation-free form of OutEdges
// for hot loops (the modulo scheduler's inner placement loop walks
// adjacency on every eviction probe).
func (g *Graph) OutEdgeIndices(id int) []int { return g.out[id] }

// InEdgeIndices is OutEdgeIndices for the edges entering node id.
func (g *Graph) InEdgeIndices(id int) []int { return g.in[id] }

// RewriteEdges applies one batch edit to the edge list in place: edit
// receives the live edge slice and returns its replacement (it may
// modify entries in place and/or append). Afterwards every edge is
// re-validated with the AddEdge rules and the adjacency indexes are
// rebuilt, so the graph behaves exactly as if it had been reconstructed
// with the edited list in order. An invalid edited edge panics, like
// MustAddEdge: batch rewriters (the spiller) run on graphs they built
// themselves, so a bad edge is a construction bug, not an input error.
//
// This is the mutation primitive for passes that rewrite a working
// graph between rounds without paying for a full rebuild. Note the
// cache-digest contract (internal/sweep): in-repo rewriters must
// strictly grow the graph (the spiller adds a store, reloads and their
// edges every round), so content-digest memos keyed on (node count,
// edge count) stay sound.
func (g *Graph) RewriteEdges(edit func(edges []Edge) []Edge) {
	g.edges = edit(g.edges)
	for i, e := range g.edges {
		if err := g.checkEdge(e); err != nil {
			panic(fmt.Sprintf("ddg: RewriteEdges produced invalid edge %d: %v", i, err))
		}
	}
	// Rebuild the adjacency indexes, reusing their backing arrays: the
	// rebuilt lists are ascending in edge index, exactly like lists grown
	// by AddEdge (indices are assigned in insertion order).
	for i := range g.out {
		g.out[i] = g.out[i][:0]
	}
	for i := range g.in {
		g.in[i] = g.in[i][:0]
	}
	for idx, e := range g.edges {
		g.out[e.From] = append(g.out[e.From], idx)
		g.in[e.To] = append(g.in[e.To], idx)
	}
}

// checkEdge holds AddEdge's validation rules, shared with RewriteEdges.
func (g *Graph) checkEdge(e Edge) error {
	if e.From < 0 || e.From >= len(g.nodes) || e.To < 0 || e.To >= len(g.nodes) {
		return fmt.Errorf("ddg: edge %v references missing node (have %d nodes)", e, len(g.nodes))
	}
	if e.Distance < 0 {
		return fmt.Errorf("ddg: edge %v has negative distance", e)
	}
	if e.Kind == Flow && !g.nodes[e.From].Op.ProducesValue() {
		return fmt.Errorf("ddg: flow edge %v from non-producing op %s", e, g.nodes[e.From].Op)
	}
	if e.Kind == Mem && (!g.nodes[e.From].Op.IsMem() || !g.nodes[e.To].Op.IsMem()) {
		return fmt.Errorf("ddg: mem edge %v between non-memory ops", e)
	}
	return nil
}

// Consumers returns the IDs of nodes that read the value produced by id
// (flow successors, any distance), deduplicated, in ascending order.
func (g *Graph) Consumers(id int) []int {
	seen := map[int]bool{}
	var res []int
	for _, ei := range g.out[id] {
		e := g.edges[ei]
		if e.Kind == Flow && !seen[e.To] {
			seen[e.To] = true
			res = append(res, e.To)
		}
	}
	sort.Ints(res)
	return res
}

// CountOps returns the number of nodes with the given opcode.
func (g *Graph) CountOps(op OpCode) int {
	n := 0
	for _, nd := range g.nodes {
		if nd.Op == op {
			n++
		}
	}
	return n
}

// MemOps returns the number of memory operations (loads + stores).
func (g *Graph) MemOps() int {
	n := 0
	for _, nd := range g.nodes {
		if nd.Op.IsMem() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the graph. The copy is built in bulk —
// the nodes in one slab, the edge list in one copy, each adjacency
// index in one backing array — and its adjacency lists are capped at
// their own length, so growing one list reallocates it instead of
// overwriting its neighbour.
func (g *Graph) Clone() *Graph {
	c := &Graph{LoopName: g.LoopName, Trips: g.Trips, byName: maps.Clone(g.byName)}
	slab := make([]Node, len(g.nodes))
	c.nodes = make([]*Node, len(g.nodes))
	for i, n := range g.nodes {
		slab[i] = *n
		c.nodes[i] = &slab[i]
	}
	c.edges = slices.Clone(g.edges)
	c.out = cloneAdjacency(g.out, len(g.edges))
	c.in = cloneAdjacency(g.in, len(g.edges))
	return c
}

// cloneAdjacency copies an adjacency index holding total entries into
// one backing array, each list's capacity limited to its length.
func cloneAdjacency(adj [][]int, total int) [][]int {
	out := make([][]int, len(adj))
	backing := make([]int, 0, total)
	for i, l := range adj {
		lo := len(backing)
		backing = append(backing, l...)
		out[i] = backing[lo:len(backing):len(backing)]
	}
	return out
}

// TripsOrOne returns the trip count, defaulting to 1 when unset.
func (g *Graph) TripsOrOne() int64 {
	if g.Trips <= 0 {
		return 1
	}
	return g.Trips
}

// String renders a short summary ("name: 7 nodes, 8 edges").
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes, %d edges", g.LoopName, len(g.nodes), len(g.edges))
}
