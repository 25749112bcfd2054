// Package sched implements modulo scheduling (software pipelining) of loop
// data-dependence graphs onto the clustered VLIW machines of the paper,
// following Rau's iterative modulo scheduling: II search upward from the
// minimum initiation interval, height-based priorities, and budget-bounded
// scheduling with eviction.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
)

// AlgorithmVersion identifies the scheduler's observable behavior for
// persistent caching (internal/store keys carry it): any change that can
// alter the schedules produced — priority functions, eviction budgets,
// II search order, tie-breaking — must bump it, so artifacts computed by
// an older binary are not mistaken for the current algorithm's output.
// Pure refactors and error-message changes do not require a bump.
const AlgorithmVersion = 1

// Schedule is a modulo schedule of a loop: an initiation interval, an
// issue cycle for every operation (in the flat, iteration-0 time frame)
// and a functional-unit binding that also determines each operation's
// cluster.
type Schedule struct {
	Graph *ddg.Graph
	Mach  *machine.Config
	// II is the initiation interval in cycles.
	II int
	// Start[id] is the issue cycle of node id for iteration 0.
	Start []int
	// FU[id] is the machine unit index executing node id.
	FU []int
}

// Cluster returns the cluster executing node id.
func (s *Schedule) Cluster(id int) int { return s.Mach.Unit(s.FU[id]).Cluster }

// Slot returns the kernel row (Start mod II) of node id.
func (s *Schedule) Slot(id int) int { return mod(s.Start[id], s.II) }

// Stage returns the pipeline stage (Start div II) of node id.
func (s *Schedule) Stage(id int) int { return s.Start[id] / s.II }

// Stages returns the number of pipeline stages of the schedule.
func (s *Schedule) Stages() int {
	max := 0
	for id := range s.Start {
		end := s.Start[id] + s.Mach.Latency(s.Graph.Node(id).Op.FUKind())
		if end > max {
			max = end
		}
	}
	return (max + s.II - 1) / s.II
}

// EdgeDelay returns the scheduling delay of a dependence edge: the
// latency of the producing operation's functional unit. It applies to
// both flow and memory edges.
func EdgeDelay(g *ddg.Graph, m *machine.Config, e ddg.Edge) int {
	return m.Latency(g.Node(e.From).Op.FUKind())
}

// Verify checks every dependence and resource constraint of the schedule
// and returns a descriptive error for the first violation found.
func (s *Schedule) Verify() error {
	if s.II < 1 {
		return fmt.Errorf("sched: II = %d", s.II)
	}
	if len(s.Start) != s.Graph.NumNodes() || len(s.FU) != s.Graph.NumNodes() {
		return fmt.Errorf("sched: incomplete schedule")
	}
	for id, fu := range s.FU {
		if fu < 0 || fu >= s.Mach.NumUnits() {
			return fmt.Errorf("sched: node %s bound to missing unit %d", s.Graph.Node(id), fu)
		}
		if s.Mach.Unit(fu).Kind != s.Graph.Node(id).Op.FUKind() {
			return fmt.Errorf("sched: node %s bound to %s unit", s.Graph.Node(id), s.Mach.Unit(fu).Kind)
		}
		if s.Start[id] < 0 {
			return fmt.Errorf("sched: node %s starts at negative cycle %d", s.Graph.Node(id), s.Start[id])
		}
	}
	// Dependences: start(to) >= start(from) + delay - II*distance.
	for i, ne := 0, s.Graph.NumEdges(); i < ne; i++ {
		e := s.Graph.Edge(i)
		delay := EdgeDelay(s.Graph, s.Mach, e)
		if s.Start[e.To] < s.Start[e.From]+delay-s.II*e.Distance {
			return fmt.Errorf("sched: edge %v violated: start(%s)=%d, start(%s)=%d, delay=%d, II=%d",
				e, s.Graph.Node(e.From), s.Start[e.From], s.Graph.Node(e.To), s.Start[e.To], delay, s.II)
		}
	}
	// Resources: at most one op per (unit, kernel row). occupied holds
	// the node on each (unit, row) cell, unit-major, or -1; the table
	// lives on the stack for the machines and IIs of this repository.
	var small [256]int
	cells := s.Mach.NumUnits() * s.II
	occupied := small[:]
	if cells > len(small) {
		occupied = make([]int, cells)
	}
	occupied = occupied[:cells]
	for i := range occupied {
		occupied[i] = -1
	}
	for id := range s.Start {
		unit, row := s.FU[id], s.Slot(id)
		cell := &occupied[unit*s.II+row]
		if *cell >= 0 {
			return fmt.Errorf("sched: nodes %s and %s share unit %d at kernel row %d",
				s.Graph.Node(*cell), s.Graph.Node(id), unit, row)
		}
		*cell = id
	}
	return nil
}

// Kernel renders the steady-state kernel: one line per kernel row listing
// each operation with its stage, grouped by cluster (as in Figures 4 and
// 5 of the paper).
func (s *Schedule) Kernel() string {
	type slotOp struct {
		id, stage, cluster int
	}
	rows := make([][]slotOp, s.II)
	for id := range s.Start {
		r := s.Slot(id)
		rows[r] = append(rows[r], slotOp{id: id, stage: s.Stage(id), cluster: s.Cluster(id)})
	}
	var b strings.Builder
	for r, ops := range rows {
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].cluster != ops[j].cluster {
				return ops[i].cluster < ops[j].cluster
			}
			return s.FU[ops[i].id] < s.FU[ops[j].id]
		})
		fmt.Fprintf(&b, "row %d:", r)
		cur := -1
		for _, op := range ops {
			if op.cluster != cur {
				fmt.Fprintf(&b, "  |c%d|", op.cluster)
				cur = op.cluster
			}
			fmt.Fprintf(&b, " [%d]%s", op.stage, s.Graph.Node(op.id).Label())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// label is re-exported for the kernel printer.
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
