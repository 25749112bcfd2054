// Package ddg implements the data-dependence graphs that drive the whole
// reproduction: typed operation nodes connected by dependence edges with
// iteration distances, as extracted from single-basic-block floating-point
// inner loops (HPCA'95, section 5.1).
package ddg

import (
	"fmt"
	"strconv"

	"ncdrf/internal/machine"
)

// OpCode enumerates the operation repertoire of the paper's machines.
type OpCode int

const (
	// FADD is a floating-point addition (executes on an adder).
	FADD OpCode = iota
	// FSUB is a floating-point subtraction (executes on an adder).
	FSUB
	// CONV is an int<->float conversion (executes on an adder).
	CONV
	// FMUL is a floating-point multiplication (executes on a multiplier).
	FMUL
	// FDIV is a floating-point division (executes on a multiplier, same
	// latency as multiplication per section 5.2).
	FDIV
	// LOAD reads a value from memory (executes on a load/store unit).
	LOAD
	// STORE writes a value to memory (executes on a load/store unit).
	// Stores produce no register value.
	STORE

	numOpCodes
)

var opNames = [...]string{
	FADD:  "fadd",
	FSUB:  "fsub",
	CONV:  "conv",
	FMUL:  "fmul",
	FDIV:  "fdiv",
	LOAD:  "load",
	STORE: "store",
}

// String returns the lower-case mnemonic of the opcode.
func (op OpCode) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return fmt.Sprintf("OpCode(%d)", int(op))
	}
	return opNames[op]
}

// ParseOpCode converts a mnemonic back to its OpCode.
func ParseOpCode(s string) (OpCode, error) {
	for op, name := range opNames {
		if name == s {
			return OpCode(op), nil
		}
	}
	return 0, fmt.Errorf("ddg: unknown opcode %q", s)
}

// FUKind returns the functional-unit kind that executes the opcode.
func (op OpCode) FUKind() machine.FUKind {
	switch op {
	case FADD, FSUB, CONV:
		return machine.Adder
	case FMUL, FDIV:
		return machine.Multiplier
	case LOAD, STORE:
		return machine.MemPort
	default:
		panic(fmt.Sprintf("ddg: invalid opcode %d", int(op)))
	}
}

// ProducesValue reports whether the opcode defines a register value.
// Stores are the only operations that do not.
func (op OpCode) ProducesValue() bool { return op != STORE }

// IsMem reports whether the opcode accesses memory.
func (op OpCode) IsMem() bool { return op == LOAD || op == STORE }

// Valid reports whether op is a defined opcode.
func (op OpCode) Valid() bool { return op >= 0 && op < numOpCodes }

// Node is one operation of a loop body.
type Node struct {
	// ID is the node's index within its Graph, assigned by AddNode.
	ID int
	// Op is the operation performed.
	Op OpCode
	// Name is an optional human-readable label ("L1", "M3", ...). Names
	// are unique within a graph when non-empty.
	Name string
	// Sym is an optional memory symbol for loads/stores (array name);
	// purely informational.
	Sym string
	// SpillSlot marks spill-generated memory operations with the slot
	// they access; -1 for ordinary nodes. Used by the spill-elimination
	// pass and by traffic accounting.
	SpillSlot int
}

// Label returns the node's name, or a synthetic "n<ID>" when unnamed.
func (n *Node) Label() string {
	if n.Name != "" {
		return n.Name
	}
	return "n" + strconv.Itoa(n.ID)
}

// String renders the node as "name:op".
func (n *Node) String() string { return fmt.Sprintf("%s:%s", n.Label(), n.Op) }

// EdgeKind distinguishes register-flow dependences from memory/ordering
// dependences.
type EdgeKind int

const (
	// Flow is a register true dependence: To reads the value produced by
	// From. Flow edges define lifetimes and register pressure.
	Flow EdgeKind = iota
	// Mem is a memory ordering dependence between two memory operations
	// (store->load, store->store, load->store on the same location).
	Mem
)

// String returns "flow" or "mem".
func (k EdgeKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Mem:
		return "mem"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is a dependence between two nodes.
type Edge struct {
	// From and To are node IDs.
	From, To int
	// Kind classifies the dependence.
	Kind EdgeKind
	// Distance is the iteration distance: 0 for intra-iteration
	// dependences, d>0 when To of iteration i+d depends on From of
	// iteration i (loop-carried).
	Distance int
}

// String renders the edge as "from->to kind dist".
func (e Edge) String() string {
	return fmt.Sprintf("%d->%d %s d=%d", e.From, e.To, e.Kind, e.Distance)
}
