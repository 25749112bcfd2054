package experiment

import (
	"io"

	"ncdrf/internal/core"
	"ncdrf/internal/machine"
	"ncdrf/internal/report"
)

// Table1Row is one configuration row of Table 1: the percentage of loops
// whose unified register requirement fits in 16/32/64 registers, and the
// percentage of execution cycles those loops represent.
type Table1Row struct {
	Config string
	// PctLoops[i] and PctCycles[i] correspond to Sizes[i].
	PctLoops  [3]float64
	PctCycles [3]float64
}

// Table1Sizes are the register-file sizes of Table 1.
var Table1Sizes = [3]int{16, 32, 64}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 projects Table 1 from the rows of s (Table1Plan): for each
// PxLy configuration, every loop scheduled with a unified register file
// and unlimited registers, it reports how many loops (and how much of
// the dynamic time) fit in 16, 32 and 64 registers without spilling.
func Table1(s *Study) (*Table1Result, error) {
	res := &Table1Result{}
	for _, m := range machine.Table1Configs() {
		reqs, err := s.Requirements(m)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Config: m.Name()}
		var totalLoops, totalCycles float64
		var fitLoops, fitCycles [3]float64
		for _, r := range reqs {
			cycles := float64(r.II) * float64(r.Trips)
			totalLoops++
			totalCycles += cycles
			for i, size := range Table1Sizes {
				if r.Regs[core.Unified] <= size {
					fitLoops[i]++
					fitCycles[i] += cycles
				}
			}
		}
		for i := range Table1Sizes {
			row.PctLoops[i] = 100 * fitLoops[i] / totalLoops
			row.PctCycles[i] = 100 * fitCycles[i] / totalCycles
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (t *Table1Result) table() *report.Table {
	tb := &report.Table{
		Title: "Table 1: % of loops (and % of cycles) allocatable without spilling, unified file",
		Headers: []string{"config",
			"loops<=16", "cycles<=16",
			"loops<=32", "cycles<=32",
			"loops<=64", "cycles<=64"},
	}
	for _, row := range t.Rows {
		tb.Add(row.Config,
			report.Pct(row.PctLoops[0]), report.Pct(row.PctCycles[0]),
			report.Pct(row.PctLoops[1]), report.Pct(row.PctCycles[1]),
			report.Pct(row.PctLoops[2]), report.Pct(row.PctCycles[2]))
	}
	return tb
}

// Render writes the table in the paper's layout.
func (t *Table1Result) Render(w io.Writer) error { return t.table().Render(w) }

// RenderCSV writes the table as CSV.
func (t *Table1Result) RenderCSV(w io.Writer) error { return t.table().CSV(w) }
