package vm

import (
	"fmt"

	"ncdrf/internal/ddg"
)

// regCell is one physical register with a shadow tag identifying the
// value instance it currently holds, for precise clobber diagnostics.
type regCell struct {
	val      float64
	producer int
	iter     int
	valid    bool
}

// pendingWrite is a register write in flight: it issues with its
// producer and lands at the producer's completion.
type pendingWrite struct {
	file, reg int
	cell      regCell
}

// Execute runs the kernel image for iters iterations the way the
// hardware does: iters + Stages - 1 passes over the kernel rows, one
// cycle per row, the rotating register base decremented once per pass.
// In pass k the instruction of stage s works on iteration k-s and is
// predicated off unless 0 <= k-s < iters. It returns the (non-spill)
// store stream.
//
// Operands are read at issue through their encoded specifiers; results
// land at completion, Latency cycles later, before that cycle's reads
// (register-file write-before-read, standard in VLIW datapaths), so a
// consumer issued exactly at its producer's completion sees the fresh
// value. Every register carries the (producer, iteration) tag of the
// value it holds, and Execute fails on any clobber: a consumer finding a
// different value instance than the dataflow expects means the
// allocation, classification or encoding is broken.
func Execute(p *Program, iters int) (StoreStream, error) {
	if iters < 1 {
		return nil, fmt.Errorf("vm: iters = %d", iters)
	}
	g := p.Loop
	files := make([][]regCell, len(p.Files))
	for f, size := range p.Files {
		files[f] = make([]regCell, size)
	}
	// pending[t mod len(pending)] holds the writes landing at cycle t;
	// every latency is shorter than the ring.
	maxLat := 0
	for _, row := range p.Rows {
		for _, ins := range row {
			maxLat = max(maxLat, ins.Latency)
		}
	}
	pending := make([][]pendingWrite, maxLat+1)

	out := StoreStream{}
	spillMem := map[int]map[int]float64{}
	var args []float64
	t := 0
	for k := 0; k < iters+p.Stages-1; k++ {
		for _, row := range p.Rows {
			landing := pending[t%len(pending)]
			for _, w := range landing {
				files[w.file][w.reg] = w.cell
			}
			pending[t%len(pending)] = landing[:0]

			for i := range row {
				ins := &row[i]
				iter := k - ins.Stage
				if iter < 0 || iter >= iters {
					continue // stage predicate off
				}
				n := g.Node(ins.Node)
				args = args[:0]
				for _, src := range ins.Srcs {
					from := iter - src.Distance
					if from < 0 {
						// The operand predates the loop: the register
						// holds the pre-loop value of its producer.
						args = append(args, initValue(g.Node(src.Producer).Label(), from))
						continue
					}
					reg := src.phys(k)
					cell := files[src.File][reg]
					if !cell.valid || cell.producer != src.Producer || cell.iter != from {
						return nil, fmt.Errorf(
							"vm: clobbered register: %s iteration %d expected value of %s iteration %d in file %d reg %d, found %s",
							n, iter, g.Node(src.Producer), from, src.File, reg, describeCell(g, cell))
					}
					args = append(args, cell.val)
				}
				v, err := perform(g, n, iter, args, spillMem, out)
				if err != nil {
					return nil, err
				}
				due := (t + ins.Latency) % len(pending)
				for _, d := range ins.Dests {
					pending[due] = append(pending[due], pendingWrite{
						file: d.File, reg: d.phys(k),
						cell: regCell{val: v, producer: n.ID, iter: iter, valid: true},
					})
				}
			}
			t++
		}
	}
	return out, nil
}

func describeCell(g *ddg.Graph, c regCell) string {
	if !c.valid {
		return "uninitialized register"
	}
	return fmt.Sprintf("%s iteration %d", g.Node(c.producer), c.iter)
}
