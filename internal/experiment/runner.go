// Package experiment wires the staged pipeline (internal/pipeline) into
// the paper's evaluation runners: Table 1 and Figures 6, 7, 8 and 9.
// Every runner executes on a sweep.Engine — a cancellable worker pool
// over a stage-granular, content-addressed cache. Work is shared by
// data flow, not by a cache in memory: one requirement sweep per
// machine measures every model (a Study hands it to every exhibit that
// weights it), and one group walk per (loop, machine) serves every
// model and budget of Figures 8 and 9.
package experiment

import (
	"context"
	"fmt"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sweep"
	"ncdrf/internal/vm"
)

// Corpus assembles the evaluation workload: the curated kernels plus the
// synthetic Perfect-Club-shaped corpus.
func Corpus(p loopgen.Params) []*ddg.Graph {
	out := loops.Kernels()
	out = append(out, loopgen.Generate(p)...)
	return out
}

// Requirements holds the unlimited-register requirement of one loop under
// every model, plus the scheduling facts shared by all models.
type Requirements struct {
	Name  string
	Trips int64
	II    int
	Ops   int
	Regs  [core.NumModels]int
}

// Study is one corpus on one engine, with each machine's RegisterSweep
// computed on first use and kept by machine name. Table 1, Figures 6
// and 7 and the cluster study read their sweeps from it, so exhibits
// that weight one measurement share it: Figure 7 reads Figure 6's
// sweeps, and the cluster study's two-cluster row reads the evaluation
// machine's. A failed sweep is not kept. A Study is not safe for
// concurrent use; its runners run one after another.
type Study struct {
	eng    *sweep.Engine
	corpus []*ddg.Graph
	sweeps map[string][]Requirements
}

// NewStudy returns a Study of corpus on eng with no sweep computed yet.
func NewStudy(eng *sweep.Engine, corpus []*ddg.Graph) *Study {
	return &Study{eng: eng, corpus: corpus, sweeps: map[string][]Requirements{}}
}

// Requirements returns the study's RegisterSweep on m, computing it on
// the first request for m's name.
func (s *Study) Requirements(ctx context.Context, m *machine.Config) ([]Requirements, error) {
	if reqs, ok := s.sweeps[m.Name()]; ok {
		return reqs, nil
	}
	reqs, err := RegisterSweep(ctx, s.eng, s.corpus, m)
	if err != nil {
		return nil, err
	}
	s.sweeps[m.Name()] = reqs
	return reqs, nil
}

// RegisterSweep measures every loop's register requirement under each
// model with registers unlimited (Engine.Requirements: one base per
// loop, or the loop's group record from the store): the data behind
// Table 1, Figures 6 and 7 and the cluster study, which differ only in
// how they weight it. Runners read it through a Study, which computes
// it once per machine.
func RegisterSweep(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config) ([]Requirements, error) {
	out := make([]Requirements, len(corpus))
	err := eng.ForEach(ctx, len(corpus), func(i int) error {
		g := corpus[i]
		req, err := eng.Requirements(ctx, g, m)
		if err != nil {
			return fmt.Errorf("%s: %w", g.LoopName, err)
		}
		out[i] = Requirements{Name: g.LoopName, Trips: g.TripsOrOne(), II: req.II, Ops: g.NumNodes(), Regs: req.Regs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// VerifySample functionally verifies a sample of the corpus: every
// stride-th loop is compiled under every non-ideal model, over one base
// per loop, and executed on the simulated rotating register files,
// checking the store stream bit-for-bit against the sequential
// reference. It returns the number of loop/model combinations verified.
func VerifySample(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config, regs, iters, stride int) (int, error) {
	if stride < 1 {
		stride = 1
	}
	var sample []*ddg.Graph
	for i := 0; i < len(corpus); i += stride {
		sample = append(sample, corpus[i])
	}
	models := []core.Model{core.Unified, core.Partitioned, core.Swapped}
	count := len(sample) * len(models)
	err := eng.ForEach(ctx, len(sample), func(i int) error {
		b, err := eng.Base(ctx, sample[i], m)
		if err != nil {
			return err
		}
		for _, model := range models {
			if err := vm.VerifyModelWith(ctx, baseCompiler{eng, b}, sample[i], m, model, regs, iters); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return count, nil
}

// baseCompiler is the vm.Compiler VerifySample hands the VM: it
// evaluates every model over one base built for the verified loop,
// scheduling spill rounds through the engine.
type baseCompiler struct {
	*sweep.Engine
	b *pipeline.Base
}

func (c baseCompiler) Compile(ctx context.Context, _ *ddg.Graph, _ *machine.Config, model core.Model, regs int) (*pipeline.ModelResult, error) {
	return pipeline.Evaluate(ctx, c.Engine, c.b, model, regs)
}
