package vm

import (
	"fmt"

	"ncdrf/internal/ddg"
	"ncdrf/internal/sched"
)

// Reg is an encoded rotating-register specifier: the register it names
// in kernel pass k is Base + ((Enc + RRB) mod Size) of file File, with
// the rotating register base RRB = -k.
type Reg struct {
	// File, Base, Size locate the rotating region (see Target).
	File, Base, Size int
	// Enc is the stage-adjusted specifier encoded in the instruction.
	Enc int
}

// phys returns the physical register the specifier names in pass k.
func (r Reg) phys(k int) int { return r.Base + mod(r.Enc-k, r.Size) }

// Operand is an encoded register source of an instruction.
type Operand struct {
	Reg
	// Producer and Distance identify the dataflow source: the operand
	// of iteration i is Producer's value of iteration i-Distance. They
	// tag-check every read and give pre-loop (negative iteration) reads
	// their value.
	Producer int
	Distance int
}

// Instruction is one operation of the kernel image.
type Instruction struct {
	// Node is the DDG node the instruction implements.
	Node int
	// Op is the operation.
	Op ddg.OpCode
	// Label names the instruction (the node's label).
	Label string
	// Row is the kernel row (issue cycle mod II).
	Row int
	// Stage is the pipeline stage: during kernel pass k the instruction
	// works on iteration k - Stage and is predicated off unless
	// 0 <= k-Stage < trips.
	Stage int
	// Unit is the machine unit index executing the instruction.
	Unit int
	// Latency is the cycles from issue until the result lands.
	Latency int
	// Dests are the register destinations (several for global values).
	Dests []Reg
	// Srcs are the register sources in operand order.
	Srcs []Operand
	// Sym is the memory symbol for loads/stores.
	Sym string
}

// Program is a kernel image: kernel-only code for a modulo-scheduled
// loop, the way the Cydra-5-style hardware the paper assumes runs it
// (section 2). A single copy of the kernel, stage predicates that switch
// iterations on during the prologue ramp and off during the epilogue
// drain, a rotating register base decremented once per kernel pass, and
// register specifiers encoded with their instruction's stage offset, so
// the one static instruction addresses a different physical register on
// every pass: no code replication, no modulo variable expansion.
type Program struct {
	// Loop is the source graph (operation semantics, pre-loop operand
	// values and spill-slot pairing).
	Loop *ddg.Graph
	// II and Stages describe the schedule shape.
	II, Stages int
	// Rows holds the instructions by kernel row, unit-ordered.
	Rows [][]Instruction
	// Files are the physical sizes of the register files.
	Files []int
}

// Generate lowers a schedule plus a register mapping into a kernel image.
// A consumer's read the mapping refuses (a value local to another
// cluster) fails here.
func Generate(s *sched.Schedule, rm RegMap) (*Program, error) {
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("vm: invalid schedule: %w", err)
	}
	g := s.Graph
	p := &Program{
		Loop:   g,
		II:     s.II,
		Stages: s.Stages(),
		Rows:   make([][]Instruction, s.II),
		Files:  rm.FileSizes(),
	}
	for _, n := range g.Nodes() {
		stage := s.Stage(n.ID)
		ins := Instruction{
			Node:    n.ID,
			Op:      n.Op,
			Label:   n.Label(),
			Row:     s.Slot(n.ID),
			Stage:   stage,
			Unit:    s.FU[n.ID],
			Latency: s.Mach.Latency(n.Op.FUKind()),
			Sym:     n.Sym,
		}
		// Destinations: the encoded specifier addresses the value of
		// iteration k-stage at pass k, so enc = spec + stage (mod size).
		for _, tgt := range rm.WriteTargets(n.ID) {
			ins.Dests = append(ins.Dests, Reg{
				File: tgt.File, Base: tgt.Base, Size: tgt.Size,
				Enc: mod(tgt.Spec+stage, tgt.Size),
			})
		}
		// Sources: the operand of iteration (k-stage)-d lives at
		// spec + stage + d (mod size) in the consumer's cluster file.
		for _, e := range g.InEdges(n.ID) {
			if e.Kind != ddg.Flow {
				continue
			}
			tgt, err := rm.ReadTarget(s.Cluster(n.ID), e.From)
			if err != nil {
				return nil, fmt.Errorf("vm: %s: %w", n, err)
			}
			ins.Srcs = append(ins.Srcs, Operand{
				Reg: Reg{
					File: tgt.File, Base: tgt.Base, Size: tgt.Size,
					Enc: mod(tgt.Spec+stage+e.Distance, tgt.Size),
				},
				Producer: e.From,
				Distance: e.Distance,
			})
		}
		p.Rows[ins.Row] = append(p.Rows[ins.Row], ins)
	}
	for r := range p.Rows {
		sortByUnit(p.Rows[r])
	}
	return p, nil
}

func sortByUnit(ins []Instruction) {
	for i := 1; i < len(ins); i++ {
		for j := i; j > 0 && ins[j-1].Unit > ins[j].Unit; j-- {
			ins[j-1], ins[j] = ins[j], ins[j-1]
		}
	}
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
