// Package experiment wires the staged pipeline (internal/pipeline) into
// the paper's evaluation runners: Table 1 and Figures 6, 7, 8 and 9.
// Every runner executes on a shared sweep.Engine — a cancellable worker
// pool over a stage-granular, content-addressed cache — so the base
// stage (modulo schedule + lifetimes) of each (loop, machine) pair is
// computed once and shared by every model, figure and register size.
package experiment

import (
	"context"
	"fmt"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
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

// RegisterSweep schedules every loop once (registers unlimited) and
// computes the register requirement under each model. This produces the
// data behind Figures 6 and 7, which differ only in how they weight the
// same sweep — so the whole result set is memoized on the engine and the
// second figure (or a Table 1 config reusing the machine) pays nothing.
func RegisterSweep(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config) ([]Requirements, error) {
	v, err := eng.Memo(ctx, eng.CorpusKey("register-sweep", corpus, m), func() (any, error) {
		return registerSweep(ctx, eng, corpus, m)
	})
	if err != nil {
		return nil, err
	}
	return v.([]Requirements), nil
}

func registerSweep(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config) ([]Requirements, error) {
	out := make([]Requirements, len(corpus))
	err := eng.ForEach(ctx, len(corpus), func(i int) error {
		g := corpus[i]
		b, err := eng.Base(ctx, g, m)
		if err != nil {
			return fmt.Errorf("%s: %w", g.LoopName, err)
		}
		regs, err := b.Requirements()
		if err != nil {
			return fmt.Errorf("%s: %w", g.LoopName, err)
		}
		out[i] = Requirements{Name: g.LoopName, Trips: g.TripsOrOne(), II: b.Sched.II, Ops: g.NumNodes(), Regs: regs}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// VerifySample functionally verifies a sample of the corpus: every
// stride-th loop is compiled under every non-ideal model and executed on
// the simulated rotating register files, checking the store stream
// bit-for-bit against the sequential reference. It returns the number of
// loop/model combinations verified.
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
		for _, model := range models {
			if err := vm.VerifyModelWith(ctx, eng, sample[i], m, model, regs, iters); err != nil {
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
