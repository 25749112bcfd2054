// Package vm executes loops functionally. RunReference interprets the
// dependence graph sequentially, iteration by iteration. Generate lowers
// a modulo schedule plus a register mapping into the kernel image that
// `ncdrf object` prints: one predicated copy of the kernel with
// stage-adjusted rotating register specifiers, for the Cydra-5-style
// hardware the paper assumes (section 2). Execute runs that image, cycle
// by cycle, on simulated rotating register files (unified or
// non-consistent dual). Comparing the two store streams validates the
// whole pipeline end to end: dependences, register allocation (no wand
// ever clobbered), value classification (every consumer finds its operand
// in its own cluster's subfile), operation swapping, spill code and the
// specifier encoding.
package vm

import (
	"hash/fnv"
	"math"

	"ncdrf/internal/ddg"
)

// loadValue returns the deterministic synthetic value returned by a
// (non-spill) load in a given iteration: uniformly spread in [1, 2) so
// divisions stay finite and products stay scaled.
func loadValue(label string, iter int) float64 {
	return unitFloat(label, "load", iter)
}

// initValue is the pre-loop value of a loop-carried operand read before
// any producing iteration has run (iteration index < 0).
func initValue(label string, iter int) float64 {
	return unitFloat(label, "init", iter)
}

// padValue is the constant standing in for an invariant or literal
// operand of an arithmetic node (the DDG does not carry those).
func padValue(label string, k int) float64 {
	return unitFloat(label, "pad", k)
}

// unitFloat hashes its inputs into [1, 2).
func unitFloat(label, kind string, n int) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(kind))
	var buf [8]byte
	v := uint64(int64(n))
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	bits := h.Sum64() >> 11 // 53 significant bits
	return 1 + float64(bits)/float64(1<<53)
}

// compute evaluates one arithmetic operation. args are the values of the
// node's flow in-edges in edge order; missing operands (invariants and
// literals in the source) are padded deterministically. Both executors
// use exactly this function (through perform), so any divergence in
// their outputs comes from the machine model, not from semantics.
func compute(n *ddg.Node, args []float64) float64 {
	arg := func(k int) float64 {
		if k < len(args) {
			return args[k]
		}
		return padValue(n.Label(), k)
	}
	switch n.Op {
	case ddg.FADD:
		return arg(0) + arg(1)
	case ddg.FSUB:
		return arg(0) - arg(1)
	case ddg.FMUL:
		return arg(0) * arg(1)
	case ddg.FDIV:
		return arg(0) / arg(1)
	case ddg.CONV:
		return math.Trunc(arg(0))
	default:
		panic("vm: compute on non-arithmetic node " + n.String())
	}
}

// sameValue compares two doubles bit-exactly, treating identical NaN
// patterns as equal. Both executors perform the same operations in the
// same order, so bit equality is the right notion.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
