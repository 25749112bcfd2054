package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/report"
	"ncdrf/internal/sweep"
)

// This file is the register-sensitivity curve subsystem: the paper's
// central question — how does each register-file organization degrade
// as the file shrinks (Figures 8/9 are four samples of that curve) —
// generalized to a dense axis. BuildCurve aggregates sweep result rows
// into per-(machine, model, regs) points; the Curve projections derive
// the figure metrics (fit %, spill ops, relative performance) from the
// point sums, and Fig8and9 is a thin projection over the same curve.

// CurvePoint aggregates every result row of one (machine, model, regs)
// grid cell over the corpus. Fields are raw sums so projections (and
// merges of independently built curves) stay exact; the derived metrics
// are methods.
type CurvePoint struct {
	Machine string
	Model   string
	Regs    int

	// Loops counts rows aggregated, Failed those carrying a compile
	// error, FitLoops those allocated without any spill code.
	Loops, Failed, FitLoops int

	// SpilledValues sums values pushed to memory to make loops fit.
	SpilledValues int
	// MemOps sums static memory operations per iteration, spill code
	// included.
	MemOps int
	// IISum sums achieved initiation intervals.
	IISum int
	// Cycles sums steady-state execution cycles (II × trips).
	Cycles int64
	// MemAccesses sums dynamic memory accesses (mem ops × trips).
	MemAccesses int64

	// The Ideal-model baseline restricted to this point's surviving
	// loops: failed loops contribute nothing to Cycles/MemOps above, so
	// comparing against the full corpus baseline would invert the
	// metrics exactly where the file is smallest (a model that fails
	// 80% of the corpus would look faster than ideal). BaselineLoops
	// counts the surviving loops that had an ideal row; the
	// baseline-relative projections require it to cover them all.
	BaselineLoops  int
	BaselineCycles int64
	BaselineMemOps int
}

// SpillLoops counts loops that needed spill code.
func (p CurvePoint) SpillLoops() int { return p.Loops - p.Failed - p.FitLoops }

// FitPct is the percentage of the cell's loops allocated without
// spilling (failed loops count against it).
func (p CurvePoint) FitPct() float64 {
	if p.Loops == 0 {
		return math.NaN()
	}
	return 100 * float64(p.FitLoops) / float64(p.Loops)
}

// MeanII is the average achieved initiation interval.
func (p CurvePoint) MeanII() float64 {
	if n := p.Loops - p.Failed; n > 0 {
		return float64(p.IISum) / float64(n)
	}
	return math.NaN()
}

// Density is the average fraction of memory-port bandwidth used per
// cycle — the Figure 9 metric: total accesses / (total cycles × ports).
func (p CurvePoint) Density(memPorts int) float64 {
	if memPorts < 1 || p.Cycles <= 0 {
		return math.NaN()
	}
	return float64(p.MemAccesses) / (float64(p.Cycles) * float64(memPorts))
}

type curveKey struct {
	machine, model string
	regs           int
}

// Curve is a set of register-sensitivity points over one result-row
// stream, indexed by (machine, model, regs) with the axes kept in
// presentation order (machines and models by first appearance, regs
// ascending).
type Curve struct {
	Machines []string
	Models   []string
	Regs     []int

	points map[curveKey]*CurvePoint

	// failures records per-row compile errors, capped like the worker
	// pool's error aggregation; failCount is the uncapped total.
	failures  []string
	failCount int
}

// maxCurveFailures bounds the failure messages Err reports.
const maxCurveFailures = 16

// BuildCurve aggregates result rows — an `ncdrf sweep`/`curve` stream,
// a merged shard set, or Engine.Rows output — into a curve. Rows may
// arrive in any order; failed rows are counted (see Err) but still
// contribute their cell to the axes.
func BuildCurve(rows []pipeline.Row) *Curve {
	// First pass: the Ideal rows, keyed per loop, so each model point
	// can accumulate a baseline over exactly its own surviving loops.
	type loopKey struct {
		machine, loop string
		regs          int
	}
	idealRows := map[loopKey]pipeline.Row{}
	idealName := core.Ideal.String()
	for _, r := range rows {
		if r.Model == idealName && r.Error == "" {
			idealRows[loopKey{machine: r.Machine, loop: r.Loop, regs: r.Regs}] = r
		}
	}

	c := &Curve{points: map[curveKey]*CurvePoint{}}
	seenM := map[string]bool{}
	seenMod := map[string]bool{}
	seenR := map[int]bool{}
	for _, r := range rows {
		if !seenM[r.Machine] {
			seenM[r.Machine] = true
			c.Machines = append(c.Machines, r.Machine)
		}
		if !seenMod[r.Model] {
			seenMod[r.Model] = true
			c.Models = append(c.Models, r.Model)
		}
		if !seenR[r.Regs] {
			seenR[r.Regs] = true
			c.Regs = append(c.Regs, r.Regs)
		}
		k := curveKey{machine: r.Machine, model: r.Model, regs: r.Regs}
		p := c.points[k]
		if p == nil {
			p = &CurvePoint{Machine: r.Machine, Model: r.Model, Regs: r.Regs}
			c.points[k] = p
		}
		p.Loops++
		if r.Error != "" {
			p.Failed++
			c.failCount++
			if len(c.failures) < maxCurveFailures {
				c.failures = append(c.failures,
					fmt.Sprintf("%s/%s (%s, %d regs): %s", r.Loop, r.Model, r.Machine, r.Regs, r.Error))
			}
			continue
		}
		if r.Spilled == 0 {
			p.FitLoops++
		}
		p.SpilledValues += r.Spilled
		p.MemOps += r.MemOps
		p.IISum += r.II
		p.Cycles += int64(r.II) * r.Trips
		p.MemAccesses += int64(r.MemOps) * r.Trips
		if ideal, ok := idealRows[loopKey{machine: r.Machine, loop: r.Loop, regs: r.Regs}]; ok {
			p.BaselineLoops++
			p.BaselineCycles += int64(ideal.II) * ideal.Trips
			p.BaselineMemOps += ideal.MemOps
		}
	}
	sort.Ints(c.Regs)
	return c
}

// Err reports the per-row compile failures the curve absorbed, joined
// (capped at maxCurveFailures messages plus a count), or nil.
func (c *Curve) Err() error {
	if c.failCount == 0 {
		return nil
	}
	errs := make([]error, 0, len(c.failures)+1)
	for _, f := range c.failures {
		errs = append(errs, errors.New(f))
	}
	if c.failCount > len(c.failures) {
		errs = append(errs, fmt.Errorf("... and %d more failed cells", c.failCount-len(c.failures)))
	}
	return errors.Join(errs...)
}

// Point returns the aggregate of one (machine, model, regs) cell.
func (c *Curve) Point(machineName, model string, regs int) (CurvePoint, bool) {
	p, ok := c.points[curveKey{machine: machineName, model: model, regs: regs}]
	if !ok {
		return CurvePoint{}, false
	}
	return *p, true
}

// baselined returns the point when its Ideal baseline covers every
// surviving loop — the precondition of every baseline-relative metric.
// A partial baseline (the stream had no Ideal rows, or an ideal row is
// itself missing/failed for a surviving loop) makes the comparison
// meaningless, so the projections report not-ok and render as "-".
func (c *Curve) baselined(machineName, model string, regs int) (CurvePoint, bool) {
	p, ok := c.Point(machineName, model, regs)
	if !ok || p.BaselineLoops != p.Loops-p.Failed {
		return CurvePoint{}, false
	}
	return p, true
}

// RelPerformance is the Figure 8 metric at one cell: aggregate
// performance relative to the Ideal baseline of the same machine and
// register size (baseline cycles / model cycles; 1.0 = no loss). The
// baseline is restricted to the cell's own surviving loops, so a cell
// with failed loops compares matched populations instead of crediting
// the failures as saved cycles. ok is false when the stream carried no
// usable Ideal baseline or the cell has no surviving cycles.
func (c *Curve) RelPerformance(machineName, model string, regs int) (float64, bool) {
	p, ok := c.baselined(machineName, model, regs)
	if !ok || p.BaselineCycles <= 0 || p.Cycles <= 0 {
		return math.NaN(), false
	}
	return float64(p.BaselineCycles) / float64(p.Cycles), true
}

// SpillOps is the static spill traffic at one cell: memory operations
// per iteration summed over the surviving loops, minus the Ideal
// baseline's (spill-free) memory operations for the same loops — i.e.
// exactly the loads and stores the spiller inserted. ok is false
// without a covering Ideal baseline.
func (c *Curve) SpillOps(machineName, model string, regs int) (int, bool) {
	p, ok := c.baselined(machineName, model, regs)
	if !ok {
		return 0, false
	}
	return p.MemOps - p.BaselineMemOps, true
}

// series builds one rendering series per model for machine m.
func (c *Curve) series(machineName string, value func(model string, regs int) float64) []report.CurveSeries {
	markers := map[string]byte{}
	for _, model := range c.Models {
		marker := byte('?')
		if model != "" {
			marker = model[0]
		}
		markers[model] = marker
	}
	var out []report.CurveSeries
	for _, model := range c.Models {
		vals := make([]float64, len(c.Regs))
		for i, regs := range c.Regs {
			vals[i] = value(model, regs)
		}
		out = append(out, report.CurveSeries{Name: model, Marker: markers[model], Values: vals})
	}
	return out
}

// curveMetric is one renderable projection of the curve.
type curveMetric struct {
	name   string
	format func(float64) string
	value  func(c *Curve, machineName, model string, regs int) float64
}

func curveMetrics() []curveMetric {
	return []curveMetric{
		{
			name:   "% of loops allocatable without spilling",
			format: report.Pct,
			value: func(c *Curve, m, model string, regs int) float64 {
				p, ok := c.Point(m, model, regs)
				if !ok {
					return math.NaN()
				}
				return p.FitPct()
			},
		},
		{
			name:   "spill memory ops per iteration (corpus total)",
			format: report.Int,
			value: func(c *Curve, m, model string, regs int) float64 {
				v, ok := c.SpillOps(m, model, regs)
				if !ok {
					return math.NaN()
				}
				return float64(v)
			},
		},
		{
			name:   "performance relative to ideal",
			format: report.F2,
			value: func(c *Curve, m, model string, regs int) float64 {
				v, ok := c.RelPerformance(m, model, regs)
				if !ok {
					return math.NaN()
				}
				return v
			},
		},
	}
}

// reportCurve assembles the generic renderer for one machine + metric.
func (c *Curve) reportCurve(machineName string, met curveMetric) *report.Curve {
	loops := 0
	if p, ok := c.Point(machineName, c.Models[0], c.Regs[0]); ok {
		loops = p.Loops
	}
	return &report.Curve{
		Title:   fmt.Sprintf("register sensitivity (%s, %d loops): %s", machineName, loops, met.name),
		XHeader: "regs",
		Format:  met.format,
		Xs:      c.Regs,
		Series: c.series(machineName, func(model string, regs int) float64 {
			return met.value(c, machineName, model, regs)
		}),
	}
}

// Render writes the curve as aligned tables: per machine, one table per
// metric (fit %, spill ops, relative performance), one row per register
// size, one column per model — the tabular form of Figures 8/9's axis.
func (c *Curve) Render(w io.Writer) error {
	if len(c.Regs) == 0 || len(c.Models) == 0 {
		return fmt.Errorf("experiment: empty curve (no result rows)")
	}
	for mi, m := range c.Machines {
		for ti, met := range curveMetrics() {
			if mi+ti > 0 {
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			if err := c.reportCurve(m, met).Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderChart draws, per machine, the fit-% and relative-performance
// curves as ASCII charts (both are natural percentages).
func (c *Curve) RenderChart(w io.Writer) error {
	if len(c.Regs) == 0 || len(c.Models) == 0 {
		return fmt.Errorf("experiment: empty curve (no result rows)")
	}
	for mi, m := range c.Machines {
		if mi > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		mets := curveMetrics()
		fit := c.reportCurve(m, mets[0])
		if err := fit.RenderChart(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		rel := c.reportCurve(m, mets[2])
		rel.Title = fmt.Sprintf("register sensitivity (%s): performance relative to ideal, %%", m)
		for si := range rel.Series {
			for vi, v := range rel.Series[si].Values {
				rel.Series[si].Values[vi] = 100 * v
			}
		}
		if err := rel.RenderChart(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes one flat CSV over every cell: identity columns plus
// the raw sums and derived metrics, machine-major then model then regs.
// Cells without an Ideal baseline leave the baseline-relative columns
// empty.
func (c *Curve) RenderCSV(w io.Writer) error {
	tb := &report.Table{
		Headers: []string{
			"machine", "model", "regs", "loops", "failed",
			"fit_pct", "spilled_loops", "spilled_values", "spill_ops",
			"mean_ii", "cycles", "rel_perf",
		},
	}
	ff := func(v float64, format func(float64) string) string {
		if math.IsNaN(v) {
			return ""
		}
		return format(v)
	}
	for _, m := range c.Machines {
		for _, model := range c.Models {
			for _, regs := range c.Regs {
				p, ok := c.Point(m, model, regs)
				if !ok {
					continue
				}
				spillOps, rel := "", ""
				if v, ok := c.SpillOps(m, model, regs); ok {
					spillOps = fmt.Sprintf("%d", v)
				}
				if v, ok := c.RelPerformance(m, model, regs); ok {
					rel = fmt.Sprintf("%.4f", v)
				}
				tb.Add(m, model, fmt.Sprintf("%d", regs),
					fmt.Sprintf("%d", p.Loops), fmt.Sprintf("%d", p.Failed),
					ff(p.FitPct(), func(v float64) string { return fmt.Sprintf("%.1f", v) }),
					fmt.Sprintf("%d", p.SpillLoops()),
					fmt.Sprintf("%d", p.SpilledValues),
					spillOps,
					ff(p.MeanII(), func(v float64) string { return fmt.Sprintf("%.2f", v) }),
					fmt.Sprintf("%d", p.Cycles),
					rel)
			}
		}
	}
	return tb.CSV(w)
}

// PerfCurve evaluates corpus × all models × regs on machine m with the
// base-major sweep executor and aggregates the rows into a curve. The
// whole result set is memoized on the engine (like RegisterSweep), so
// projections sharing a configuration — Figure 8, Figure 9, repeated
// CLI metrics — pay for the sweep once.
func PerfCurve(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config, regs []int) (*Curve, error) {
	key := eng.CorpusKey(fmt.Sprintf("curve/%v", regs), corpus, m)
	v, err := eng.Memo(ctx, key, func() (any, error) {
		grid := sweep.Grid{
			Corpus:   corpus,
			Machines: []*machine.Config{m},
			Models:   core.Models[:],
			Regs:     regs,
		}
		rows, err := eng.Rows(ctx, grid)
		if err != nil {
			return nil, err
		}
		return BuildCurve(rows), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Curve), nil
}
