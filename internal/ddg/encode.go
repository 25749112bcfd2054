package ddg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"ncdrf/internal/fields"
)

// The text encoding is a line-oriented format used by the CLI and the
// corpus files:
//
//	loop <name> trips <n>
//	node <name> <opcode> [sym <symbol>]
//	edge <from-name> <to-name> <flow|mem> <distance>
//
// Node names are mandatory in the encoding (anonymous nodes are written
// with their synthetic n<ID> labels).

// Encode writes the graph in the text format.
func (g *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "loop %s trips %d\n", g.LoopName, g.TripsOrOne())
	for _, n := range g.nodes {
		if n.Sym != "" {
			fmt.Fprintf(bw, "node %s %s sym %s\n", n.Label(), n.Op, n.Sym)
		} else {
			fmt.Fprintf(bw, "node %s %s\n", n.Label(), n.Op)
		}
	}
	for _, e := range g.edges {
		fmt.Fprintf(bw, "edge %s %s %s %d\n",
			g.nodes[e.From].Label(), g.nodes[e.To].Label(), e.Kind, e.Distance)
	}
	return bw.Flush()
}

// maxLineBytes bounds one line of the text format: a line of this
// length or longer is bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// Decode parses one graph in the text format. Extra blank lines and
// #-comments are permitted.
func Decode(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeString(string(data))
}

// DecodeString is Decode over text already in memory. The decoded
// graph's names are substrings of text, so the text is read in one pass
// with no copy beyond the graph itself: its nodes in one slab, its
// edges and each adjacency index in one backing array.
func DecodeString(text string) (*Graph, error) {
	var g *Graph
	var slab []Node
	var f [6]string
	lineNo := 0
	for rest := text; rest != ""; {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		if len(raw) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		lineNo++
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		n := fields.Split(line, f[:])
		switch f[0] {
		case "loop":
			if g != nil {
				return nil, fmt.Errorf("ddg decode line %d: duplicate loop header", lineNo)
			}
			if n != 4 || f[2] != "trips" {
				return nil, fmt.Errorf("ddg decode line %d: malformed loop header %q", lineNo, line)
			}
			trips, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: bad trip count: %v", lineNo, err)
			}
			g = New(f[1], trips)
			nodes, edges := countDirectives(rest)
			g.nodes = make([]*Node, 0, nodes)
			g.edges = make([]Edge, 0, edges)
			g.byName = make(map[string]int, nodes)
			slab = make([]Node, 0, nodes)
		case "node":
			if g == nil {
				return nil, fmt.Errorf("ddg decode line %d: node before loop header", lineNo)
			}
			if n != 3 && !(n == 5 && f[3] == "sym") {
				return nil, fmt.Errorf("ddg decode line %d: malformed node %q", lineNo, line)
			}
			op, err := ParseOpCode(f[2])
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: %v", lineNo, err)
			}
			if _, dup := g.byName[f[1]]; dup {
				return nil, fmt.Errorf("ddg decode line %d: duplicate node %q", lineNo, f[1])
			}
			id := len(g.nodes)
			slab = append(slab, Node{ID: id, Op: op, Name: f[1], SpillSlot: -1})
			if n == 5 {
				slab[len(slab)-1].Sym = f[4]
			}
			g.nodes = append(g.nodes, &slab[len(slab)-1])
			g.byName[f[1]] = id
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("ddg decode line %d: edge before loop header", lineNo)
			}
			if n != 5 {
				return nil, fmt.Errorf("ddg decode line %d: malformed edge %q", lineNo, line)
			}
			from, ok := g.byName[f[1]]
			if !ok {
				return nil, fmt.Errorf("ddg decode line %d: unknown node %q", lineNo, f[1])
			}
			to, ok := g.byName[f[2]]
			if !ok {
				return nil, fmt.Errorf("ddg decode line %d: unknown node %q", lineNo, f[2])
			}
			var kind EdgeKind
			switch f[3] {
			case "flow":
				kind = Flow
			case "mem":
				kind = Mem
			default:
				return nil, fmt.Errorf("ddg decode line %d: unknown edge kind %q", lineNo, f[3])
			}
			dist, err := strconv.Atoi(f[4])
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: bad distance: %v", lineNo, err)
			}
			e := Edge{From: from, To: to, Kind: kind, Distance: dist}
			if err := g.checkEdge(e); err != nil {
				return nil, fmt.Errorf("ddg decode line %d: %v", lineNo, err)
			}
			g.edges = append(g.edges, e)
		default:
			return nil, fmt.Errorf("ddg decode line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if g == nil {
		return nil, fmt.Errorf("ddg decode: no loop header found")
	}
	g.index()
	return g, nil
}

// countDirectives counts the lines of text that start, after white
// space, with a node or an edge directive: bounds on the node and edge
// counts, which Decode presizes the graph to, so the node slab is never
// reallocated under the pointers into it.
func countDirectives(text string) (nodes, edges int) {
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimLeftFunc(line, unicode.IsSpace)
		switch {
		case strings.HasPrefix(line, "node"):
			nodes++
		case strings.HasPrefix(line, "edge"):
			edges++
		}
	}
	return nodes, edges
}

// index builds the adjacency indexes of a graph whose edges were
// appended without them, in one backing array: each list ascending in
// edge index, as AddEdge grows it, and capped at its length, as Clone
// leaves it.
func (g *Graph) index() {
	n := len(g.nodes)
	lists := make([][]int, 2*n)
	g.out, g.in = lists[:n:n], lists[n:]
	lo := make([]int, 2*n+1)
	for _, e := range g.edges {
		lo[e.From+1]++
		lo[n+e.To+1]++
	}
	for i := 1; i <= 2*n; i++ {
		lo[i] += lo[i-1]
	}
	backing := make([]int, 2*len(g.edges))
	for i := range lists {
		lists[i] = backing[lo[i]:lo[i]:lo[i+1]]
	}
	for idx, e := range g.edges {
		g.out[e.From] = append(g.out[e.From], idx)
		g.in[e.To] = append(g.in[e.To], idx)
	}
}

// DOT renders the graph in Graphviz format, flow edges solid and memory
// edges dashed, loop-carried edges annotated with their distance.
func (g *Graph) DOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n", g.LoopName)
	fmt.Fprintf(bw, "  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range g.nodes {
		fmt.Fprintf(bw, "  %q [label=\"%s\\n%s\"];\n", n.Label(), n.Label(), n.Op)
	}
	// Sort edges for stable output.
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		style := "solid"
		if e.Kind == Mem {
			style = "dashed"
		}
		if e.Distance > 0 {
			fmt.Fprintf(bw, "  %q -> %q [style=%s, label=\"d=%d\"];\n",
				g.nodes[e.From].Label(), g.nodes[e.To].Label(), style, e.Distance)
		} else {
			fmt.Fprintf(bw, "  %q -> %q [style=%s];\n",
				g.nodes[e.From].Label(), g.nodes[e.To].Label(), style)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
