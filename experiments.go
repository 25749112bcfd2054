package ncdrf

import (
	"context"
	"io"

	"ncdrf/internal/ddg"
	"ncdrf/internal/experiment"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/sweep"
)

// CorpusOptions selects the evaluation workload for the experiment
// runners: the curated kernels plus a synthetic Perfect-Club-shaped
// corpus (see internal/loopgen for the calibration rationale).
type CorpusOptions struct {
	// Loops is the synthetic corpus size; 0 means the paper's 795.
	Loops int
	// Seed makes the synthetic corpus reproducible; 0 means the default.
	Seed int64
	// KernelsOnly drops the synthetic corpus entirely.
	KernelsOnly bool
}

func (o CorpusOptions) build() []*ddg.Graph {
	if o.KernelsOnly {
		return loops.Kernels()
	}
	p := loopgen.Defaults()
	if o.Loops > 0 {
		p.Loops = o.Loops
	}
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	return experiment.Corpus(p)
}

// run measures plan over the selected corpus on a fresh engine.
func run(opts CorpusOptions, plan experiment.Plan) (*experiment.Study, error) {
	//lint:allow ctxflow -- ctx-free public facade: the render call is the root of its call tree
	return experiment.Run(context.Background(), sweep.New(0), opts.build(), plan)
}

// RenderTable1 regenerates Table 1 of the paper (percentage of loops and
// of cycles allocatable without spilling in 16/32/64 registers, for the
// four PxLy configurations) and writes it to w.
func RenderTable1(opts CorpusOptions, w io.Writer) error {
	st, err := run(opts, experiment.Table1Plan())
	if err != nil {
		return err
	}
	res, err := experiment.Table1(st)
	if err != nil {
		return err
	}
	return res.Render(w)
}

// RenderFig6 regenerates Figure 6 (static cumulative distribution of
// loops over register requirements) for both latencies.
func RenderFig6(opts CorpusOptions, w io.Writer) error {
	return renderCDF(opts, w, false)
}

// RenderFig7 regenerates Figure 7 (execution-time-weighted cumulative
// distribution) for both latencies.
func RenderFig7(opts CorpusOptions, w io.Writer) error {
	return renderCDF(opts, w, true)
}

func renderCDF(opts CorpusOptions, w io.Writer, dynamic bool) error {
	st, err := run(opts, experiment.CDFPlan())
	if err != nil {
		return err
	}
	for _, lat := range []int{3, 6} {
		res, err := experiment.FigCDF(st, lat, dynamic)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// RenderFig8And9 regenerates Figures 8 (relative performance with 32 and
// 64 registers) and 9 (density of memory traffic) in one pass, since
// they share all the computation.
func RenderFig8And9(opts CorpusOptions, w io.Writer) error {
	st, err := run(opts, experiment.PerfPlan())
	if err != nil {
		return err
	}
	res, err := experiment.Fig8and9(st, nil)
	if err != nil {
		return err
	}
	if err := res.RenderFig8(w); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return res.RenderFig9(w)
}
