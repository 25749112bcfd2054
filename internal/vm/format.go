package vm

import (
	"fmt"
	"strings"
)

// Format renders the kernel image as predicated VLIW code: one bundle per
// kernel row, each instruction guarded by its stage predicate p[s], with
// encoded (stage-adjusted) rotating register specifiers and the loop-back
// brtop that rotates the register base and shifts the predicates, after
// the Cydra 5's overlapped-loop support.
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; kernel of %s: II=%d, stages=%d; trips+%d passes drain the pipeline\n",
		p.Loop.LoopName, p.II, p.Stages, p.Stages-1)
	for f, size := range p.Files {
		fmt.Fprintf(&b, "; file %d: %d rotating registers\n", f, size)
	}
	for row := 0; row < p.II; row++ {
		fmt.Fprintf(&b, "L%d:\n", row)
		for _, ins := range p.Rows[row] {
			fmt.Fprintf(&b, "  p[%2d] %-8s %-6s %s\n",
				ins.Stage, ins.Label, ins.Op, formatOperands(&ins))
		}
	}
	fmt.Fprintf(&b, "  brtop L0        ; RRB--, shift stage predicates, loop while work remains\n")
	return b.String()
}

func formatOperands(ins *Instruction) string {
	var parts []string
	for _, d := range ins.Dests {
		parts = append(parts, fmt.Sprintf("f%d:%d", d.File, d.Enc))
	}
	if len(ins.Dests) == 0 && ins.Op.ProducesValue() {
		parts = append(parts, "-")
	}
	var srcs []string
	for _, s := range ins.Srcs {
		srcs = append(srcs, fmt.Sprintf("f%d:%d", s.File, s.Enc))
	}
	if ins.Sym != "" {
		srcs = append(srcs, "@"+ins.Sym)
	}
	if len(srcs) > 0 {
		if len(parts) > 0 {
			parts = append(parts, "<-")
		}
		parts = append(parts, strings.Join(srcs, ", "))
	}
	return strings.Join(parts, " ")
}
