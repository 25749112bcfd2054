package vm

import (
	"context"
	"fmt"
	"sort"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
)

// VerifyModel runs the complete pipeline for a loop under a register-file
// model — modulo scheduling, classification, allocation, spilling at the
// given file size (0 = unlimited) — then generates the kernel image,
// executes it on the simulated rotating-register hardware and checks it
// against the sequential reference execution, bit for bit, over iters
// iterations.
//
// A nil return proves, for this loop, that the schedule respects every
// dependence, that no allocated register is ever clobbered while live,
// that every consumer finds its operand in its own cluster's subfile
// (the non-consistent-dual correctness condition), and that spill code
// preserves semantics, all through the code `ncdrf object` prints.
func VerifyModel(g *ddg.Graph, m *machine.Config, model core.Model, regs, iters int) error {
	//lint:allow ctxflow -- VerifyModel is the documented ctx-free wrapper; VerifyModelWith is the threaded form
	return VerifyModelWith(context.Background(), nil, g, m, model, regs, iters)
}

// Compiler is the optional compiling interface of a Scheduler: a
// sweep.Engine counts the base it builds at its stages, and a caller
// verifying several models of one loop hands over a Compiler that
// evaluates them all over one base.
type Compiler interface {
	Compile(ctx context.Context, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (*pipeline.ModelResult, error)
}

// VerifyModelWith is VerifyModel with every pipeline stage routed through
// sr (e.g. the sweep engine); a nil sr computes stages directly.
// ctx cancels the compilation between pipeline stages and spill rounds.
func VerifyModelWith(ctx context.Context, sr spill.Scheduler, g *ddg.Graph, m *machine.Config, model core.Model, regs, iters int) error {
	want, err := RunReference(g, iters)
	if err != nil {
		return fmt.Errorf("vm: reference: %w", err)
	}
	p, err := image(ctx, sr, g, m, model, regs)
	if err != nil {
		return err
	}
	got, err := Execute(p, iters)
	if err != nil {
		return fmt.Errorf("vm: pipelined execution of %s under %v: %w", g.LoopName, model, err)
	}
	return CompareStreams(want, got)
}

// image compiles g under model at regs and generates the kernel image of
// the result: the schedule its requirement is measured on (Swapped's is
// swap-rebalanced, see pipeline.ModelResult.Requirement), allocated onto
// the model's register files.
func image(ctx context.Context, sr spill.Scheduler, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (*Program, error) {
	var res *pipeline.ModelResult
	var err error
	if cp, ok := sr.(Compiler); ok {
		res, err = cp.Compile(ctx, g, m, model, regs)
	} else {
		var b *pipeline.Base
		if b, err = pipeline.NewBaseWith(sr, g, m, sched.Options{}); err == nil {
			res, err = pipeline.Evaluate(ctx, sr, b, model, regs)
		}
	}
	if err != nil {
		return nil, err
	}
	s := res.Sched
	if model == core.Swapped {
		if _, s, err = res.Requirement(); err != nil {
			return nil, err
		}
	}
	rm, err := NewRegMap(model, s, res.Lifetimes)
	if err != nil {
		return nil, err
	}
	p, err := Generate(s, rm)
	if err != nil {
		return nil, fmt.Errorf("vm: %s under %v: %w", g.LoopName, model, err)
	}
	return p, nil
}

// CompareStreams checks that two store streams are identical: same
// dynamic stores, bit-identical values.
func CompareStreams(want, got StoreStream) error {
	if len(want) != len(got) {
		return fmt.Errorf("vm: store counts differ: reference %d, pipelined %d", len(want), len(got))
	}
	keys := make([]StoreKey, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Iter < keys[j].Iter
	})
	for _, k := range keys {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("vm: pipelined execution missing store %s iteration %d", k.Node, k.Iter)
		}
		if !sameValue(want[k], gv) {
			return fmt.Errorf("vm: store %s iteration %d differs: reference %v, pipelined %v",
				k.Node, k.Iter, want[k], gv)
		}
	}
	return nil
}
