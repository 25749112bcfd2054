package lir

import (
	"fmt"
	"strconv"
	"strings"

	"ncdrf/internal/ddg"
)

// Lower converts a parsed program to a data-dependence graph.
//
// Rules:
//   - every statement becomes one node;
//   - a value operand "v" refers to the definition of v in the same
//     iteration and must appear textually before its use;
//   - "v@d" refers to the definition of v from d iterations earlier and
//     may reference any statement (including itself: a recurrence);
//   - invariants and literals produce no edges;
//   - explicit mem directives become memory ordering edges;
//   - symbols of the form "stackN" mark spill locations: the node's
//     SpillSlot is set to N.
func Lower(p *Program) (*ddg.Graph, error) {
	g := ddg.New(p.Name, p.Trips)
	inv := make(map[string]bool, len(p.Invariants))
	for _, name := range p.Invariants {
		inv[name] = true
	}

	defs := map[string]int{}   // value name -> node ID
	labels := map[string]int{} // node name -> node ID
	storeCount := 0

	// First pass: create nodes, record definitions and labels.
	for _, st := range p.Stmts {
		var op ddg.OpCode
		switch st.Op {
		case "fadd":
			op = ddg.FADD
		case "fsub":
			op = ddg.FSUB
		case "fmul":
			op = ddg.FMUL
		case "fdiv":
			op = ddg.FDIV
		case "conv":
			op = ddg.CONV
		case "load":
			op = ddg.LOAD
		case "store":
			op = ddg.STORE
		default:
			return nil, errf(st.Line, "internal: unvalidated op %q", st.Op)
		}
		name := st.NodeName(storeCount)
		if st.Op == "store" && st.Label == "" {
			storeCount++
		}
		if _, dup := labels[name]; dup {
			return nil, errf(st.Line, "duplicate node name %q", name)
		}
		id := g.AddNode(op, name)
		labels[name] = id
		node := g.Node(id)
		node.Sym = st.Sym
		if slot, ok := spillSlot(st.Sym); ok {
			node.SpillSlot = slot
		}
		if st.Dest != "" {
			if inv[st.Dest] {
				return nil, errf(st.Line, "cannot assign to invariant %q", st.Dest)
			}
			if _, dup := defs[st.Dest]; dup {
				return nil, errf(st.Line, "value %q defined twice", st.Dest)
			}
			defs[st.Dest] = id
		}
	}

	// Second pass: operand edges.
	for si, st := range p.Stmts {
		toID := labels[st.NodeName(-1)]
		if st.Label == "" && st.Dest == "" {
			// Recompute synthesized store names in order.
			toID = storeNodeID(g, p, si)
		}
		for _, arg := range st.Args {
			if arg.Literal {
				continue
			}
			if inv[arg.Ident] {
				if arg.Dist > 0 {
					return nil, errf(st.Line, "invariant %q cannot carry an iteration distance", arg.Ident)
				}
				continue
			}
			fromID, ok := defs[arg.Ident]
			if !ok {
				return nil, errf(st.Line, "undefined value %q (declare it invariant or define it)", arg.Ident)
			}
			if arg.Dist == 0 && fromID >= toID {
				return nil, errf(st.Line,
					"value %q used before its definition in the same iteration; use %s@1 for a loop-carried reference",
					arg.Ident, arg.Ident)
			}
			e := ddg.Edge{From: fromID, To: toID, Kind: ddg.Flow, Distance: arg.Dist}
			if err := g.AddEdge(e); err != nil {
				return nil, errf(st.Line, "%v", err)
			}
		}
	}

	// Explicit memory dependences.
	for _, m := range p.MemDeps {
		from, ok := labels[m.From]
		if !ok {
			return nil, errf(m.Line, "mem: unknown node %q", m.From)
		}
		to, ok := labels[m.To]
		if !ok {
			return nil, errf(m.Line, "mem: unknown node %q", m.To)
		}
		e := ddg.Edge{From: from, To: to, Kind: ddg.Mem, Distance: m.Distance}
		if err := g.AddEdge(e); err != nil {
			return nil, errf(m.Line, "%v", err)
		}
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("lir: lowering %q: %w", p.Name, err)
	}
	return g, nil
}

// storeNodeID finds the node for the si-th statement when it is an
// unlabeled store (whose name was synthesized in order).
func storeNodeID(g *ddg.Graph, p *Program, si int) int {
	count := 0
	for i := 0; i < si; i++ {
		if p.Stmts[i].Op == "store" && p.Stmts[i].Label == "" {
			count++
		}
	}
	return g.NodeByName(fmt.Sprintf("st%d", count)).ID
}

// spillSlot recognizes "stackN" symbols and returns the slot number.
func spillSlot(sym string) (int, bool) {
	if !strings.HasPrefix(sym, "stack") {
		return 0, false
	}
	n, err := strconv.Atoi(sym[len("stack"):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Compile is the front end in one step: it parses, lowers and removes
// the matched stack spill pairs of the source (EliminateStackSpills).
func Compile(src string) (*ddg.Graph, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	g, err := Lower(p)
	if err != nil {
		return nil, err
	}
	g, _ = EliminateStackSpills(g)
	return g, nil
}

// MustCompile is Compile but panics on error; for corpus construction.
func MustCompile(src string) *ddg.Graph {
	g, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return g
}
