package ddg

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
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

// Decode parses one graph in the text format. Extra blank lines and
// #-comments are permitted.
func Decode(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var g *Graph
	ids := map[string]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "loop":
			if g != nil {
				return nil, fmt.Errorf("ddg decode line %d: duplicate loop header", lineNo)
			}
			if len(fields) != 4 || fields[2] != "trips" {
				return nil, fmt.Errorf("ddg decode line %d: malformed loop header %q", lineNo, line)
			}
			trips, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: bad trip count: %v", lineNo, err)
			}
			g = New(fields[1], trips)
		case "node":
			if g == nil {
				return nil, fmt.Errorf("ddg decode line %d: node before loop header", lineNo)
			}
			if len(fields) != 3 && !(len(fields) == 5 && fields[3] == "sym") {
				return nil, fmt.Errorf("ddg decode line %d: malformed node %q", lineNo, line)
			}
			op, err := ParseOpCode(fields[2])
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: %v", lineNo, err)
			}
			if _, dup := ids[fields[1]]; dup {
				return nil, fmt.Errorf("ddg decode line %d: duplicate node %q", lineNo, fields[1])
			}
			id := g.AddNode(op, fields[1])
			if len(fields) == 5 {
				g.Node(id).Sym = fields[4]
			}
			ids[fields[1]] = id
		case "edge":
			if g == nil {
				return nil, fmt.Errorf("ddg decode line %d: edge before loop header", lineNo)
			}
			if len(fields) != 5 {
				return nil, fmt.Errorf("ddg decode line %d: malformed edge %q", lineNo, line)
			}
			from, ok := ids[fields[1]]
			if !ok {
				return nil, fmt.Errorf("ddg decode line %d: unknown node %q", lineNo, fields[1])
			}
			to, ok := ids[fields[2]]
			if !ok {
				return nil, fmt.Errorf("ddg decode line %d: unknown node %q", lineNo, fields[2])
			}
			var kind EdgeKind
			switch fields[3] {
			case "flow":
				kind = Flow
			case "mem":
				kind = Mem
			default:
				return nil, fmt.Errorf("ddg decode line %d: unknown edge kind %q", lineNo, fields[3])
			}
			dist, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: bad distance: %v", lineNo, err)
			}
			if err := g.AddEdge(Edge{From: from, To: to, Kind: kind, Distance: dist}); err != nil {
				return nil, fmt.Errorf("ddg decode line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("ddg decode line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("ddg decode: no loop header found")
	}
	return g, nil
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
