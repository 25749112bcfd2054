package ddg_test

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ncdrf/internal/ddg"
)

// decodeRef is ddg.Decode as it was before it read its input in one
// pass: a bufio.Scanner over the lines, strings.Fields over each, and a
// name index of its own. FuzzDDGDecode holds Decode to it.
func decodeRef(r io.Reader) (*ddg.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var g *ddg.Graph
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
			g = ddg.New(fields[1], trips)
		case "node":
			if g == nil {
				return nil, fmt.Errorf("ddg decode line %d: node before loop header", lineNo)
			}
			if len(fields) != 3 && !(len(fields) == 5 && fields[3] == "sym") {
				return nil, fmt.Errorf("ddg decode line %d: malformed node %q", lineNo, line)
			}
			op, err := ddg.ParseOpCode(fields[2])
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
			var kind ddg.EdgeKind
			switch fields[3] {
			case "flow":
				kind = ddg.Flow
			case "mem":
				kind = ddg.Mem
			default:
				return nil, fmt.Errorf("ddg decode line %d: unknown edge kind %q", lineNo, fields[3])
			}
			dist, err := strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("ddg decode line %d: bad distance: %v", lineNo, err)
			}
			if err := g.AddEdge(ddg.Edge{From: from, To: to, Kind: kind, Distance: dist}); err != nil {
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
