package experiment

import (
	"fmt"
	"io"
	"math"

	"ncdrf/internal/core"
	"ncdrf/internal/machine"
	"ncdrf/internal/report"
)

// cdfModels are the models plotted in Figures 6 and 7 (Ideal has no
// register requirement).
var cdfModels = []core.Model{core.Unified, core.Partitioned, core.Swapped}

// FigXAxis is the register axis used for the cumulative plots, matching
// the paper's 16..128 range.
var FigXAxis = []int{8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128}

// CDFResult holds one latency's cumulative distributions for Figures 6/7.
type CDFResult struct {
	Latency int
	Dynamic bool // false: Figure 6 (loops), true: Figure 7 (cycles)
	// Series[model] is the percentage of loops (or cycles) allocatable
	// with at most x registers, for each x in FigXAxis.
	Series map[core.Model][]float64
	// P90[model] is the smallest register count covering 90% of the
	// loops (or cycles).
	P90 map[core.Model]int
}

// FigCDF projects Figure 6, the static cumulative distribution of loops
// over their register requirements, or with dynamic Figure 7, the same
// weighted by executed cycles (II * trips), for one latency (3 or 6) on
// the section 5.2 two-cluster evaluation machine (CDFPlan).
func FigCDF(s *Study, latency int, dynamic bool) (*CDFResult, error) {
	reqs, err := s.Requirements(machine.Eval(latency))
	if err != nil {
		return nil, err
	}
	res := &CDFResult{
		Latency: latency,
		Dynamic: dynamic,
		Series:  map[core.Model][]float64{},
		P90:     map[core.Model]int{},
	}
	for _, model := range cdfModels {
		samples := make([]report.Sample, 0, len(reqs))
		for _, r := range reqs {
			w := 1.0
			if dynamic {
				w = float64(r.II) * float64(r.Trips)
			}
			samples = append(samples, report.Sample{Value: r.Regs[model], Weight: w})
		}
		cdf := report.NewCDF(samples)
		res.Series[model] = cdf.Series(FigXAxis)
		res.P90[model] = cdf.Percentile(0.9)
	}
	return res, nil
}

// Render writes the CDF as a table with one row per register count.
func (c *CDFResult) Render(w io.Writer) error { return c.table().Render(w) }

// RenderCSV writes the CDF table as CSV.
func (c *CDFResult) RenderCSV(w io.Writer) error { return c.table().CSV(w) }

func (c *CDFResult) table() *report.Table {
	fig, unit := "Figure 6", "% of loops"
	if c.Dynamic {
		fig, unit = "Figure 7", "% of cycles"
	}
	tb := &report.Table{
		Title:   fmt.Sprintf("%s (latency %d): cumulative %s allocatable with <= R registers", fig, c.Latency, unit),
		Headers: []string{"registers", "unified", "partitioned", "swapped"},
	}
	for i, x := range FigXAxis {
		tb.Add(fmt.Sprintf("%d", x),
			report.Pct(c.Series[core.Unified][i]),
			report.Pct(c.Series[core.Partitioned][i]),
			report.Pct(c.Series[core.Swapped][i]))
	}
	tb.Add("p90",
		fmt.Sprintf("%d regs", c.P90[core.Unified]),
		fmt.Sprintf("%d regs", c.P90[core.Partitioned]),
		fmt.Sprintf("%d regs", c.P90[core.Swapped]))
	return tb
}

// RenderChart draws the CDF as an ASCII line chart (the figures in the
// paper are line plots; the table form is better for diffing, the chart
// for eyeballing).
func (c *CDFResult) RenderChart(w io.Writer) error {
	fig, unit := "Figure 6", "% of loops"
	if c.Dynamic {
		fig, unit = "Figure 7", "% of cycles"
	}
	chart := &report.Chart{
		Title:  fmt.Sprintf("%s (latency %d): cumulative %s vs registers", fig, c.Latency, unit),
		XLabel: "registers",
	}
	markers := map[core.Model]byte{core.Unified: 'u', core.Partitioned: 'p', core.Swapped: 's'}
	for _, model := range cdfModels {
		if err := chart.AddSeries(model.String(), markers[model], FigXAxis, c.Series[model]); err != nil {
			return err
		}
	}
	return chart.Render(w)
}

// PerfConfig identifies one bar group of Figures 8/9.
type PerfConfig struct {
	Latency int
	Regs    int
}

// PerfConfigs are the four configurations of Figures 8 and 9, in the
// paper's order.
var PerfConfigs = []PerfConfig{{3, 32}, {6, 32}, {3, 64}, {6, 64}}

// PerfResult holds Figure 8 (relative performance) and Figure 9 (density
// of memory traffic) data for every configuration and model.
type PerfResult struct {
	Configs []PerfConfig
	// Performance[ci][model]: aggregate performance relative to Ideal.
	Performance [][core.NumModels]float64
	// Density[ci][model]: average memory-port bandwidth fraction used.
	Density [][core.NumModels]float64
	// SpilledLoops[ci][model]: number of loops that needed spill code.
	SpilledLoops [][core.NumModels]int
}

// Fig8and9 projects both figures from the limited-register cells of s
// (PerfPlan) for every configuration and model: each evaluation
// machine's cells at all its budgets were measured by one walk per
// (loop, machine) group, and the figure metrics are the projections of
// that machine's curve.
func Fig8and9(s *Study, configs []PerfConfig) (*PerfResult, error) {
	if len(configs) == 0 {
		configs = PerfConfigs
	}
	res := &PerfResult{Configs: configs}
	for _, cfg := range configs {
		m := machine.Eval(cfg.Latency)
		curve, err := s.curve(m)
		if err != nil {
			return nil, err
		}
		// The figures have no column for broken cells: a loop that cannot
		// compile fails the whole figure.
		if err := curve.Err(); err != nil {
			return nil, err
		}
		memPorts := m.CountOfKind(machine.MemPort)
		var perfRow [core.NumModels]float64
		var densRow [core.NumModels]float64
		var spillRow [core.NumModels]int
		for _, model := range core.Models {
			pt, ok := curve.Point(m.Name(), model.String(), cfg.Regs)
			if !ok {
				return nil, fmt.Errorf("experiment: curve missing cell %s/%v/%d", m.Name(), model, cfg.Regs)
			}
			rel, ok := curve.RelPerformance(m.Name(), model.String(), cfg.Regs)
			if !ok {
				return nil, fmt.Errorf("experiment: no ideal baseline for %s at %d regs", m.Name(), cfg.Regs)
			}
			d := pt.Density(memPorts)
			if math.IsNaN(d) {
				return nil, fmt.Errorf("experiment: degenerate traffic density for %s/%v/%d", m.Name(), model, cfg.Regs)
			}
			perfRow[model] = rel
			densRow[model] = d
			spillRow[model] = pt.SpillLoops()
		}
		res.Performance = append(res.Performance, perfRow)
		res.Density = append(res.Density, densRow)
		res.SpilledLoops = append(res.SpilledLoops, spillRow)
	}
	return res, nil
}

// RenderFig8 writes the relative-performance table (Figure 8).
func (p *PerfResult) RenderFig8(w io.Writer) error {
	tb := &report.Table{
		Title:   "Figure 8: performance relative to ideal (infinite registers)",
		Headers: []string{"config", "ideal", "unified", "partitioned", "swapped"},
	}
	for i, cfg := range p.Configs {
		tb.Add(fmt.Sprintf("L=%d,R=%d", cfg.Latency, cfg.Regs),
			report.F2(p.Performance[i][core.Ideal]),
			report.F2(p.Performance[i][core.Unified]),
			report.F2(p.Performance[i][core.Partitioned]),
			report.F2(p.Performance[i][core.Swapped]))
	}
	return tb.Render(w)
}

// RenderFig9 writes the traffic-density table (Figure 9).
func (p *PerfResult) RenderFig9(w io.Writer) error {
	tb := &report.Table{
		Title:   "Figure 9: density of memory traffic (bus bandwidth fraction per cycle)",
		Headers: []string{"config", "ideal", "unified", "partitioned", "swapped"},
	}
	for i, cfg := range p.Configs {
		tb.Add(fmt.Sprintf("L=%d,R=%d", cfg.Latency, cfg.Regs),
			report.F2(p.Density[i][core.Ideal]),
			report.F2(p.Density[i][core.Unified]),
			report.F2(p.Density[i][core.Partitioned]),
			report.F2(p.Density[i][core.Swapped]))
	}
	return tb.Render(w)
}
