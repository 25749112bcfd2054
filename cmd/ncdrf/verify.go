package main

import (
	"flag"
	"fmt"

	"ncdrf/internal/core"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/vm"
)

// cmdVerify runs the functional simulator: it executes the kernel image
// `ncdrf object` prints for the compiled loop (including any spill code)
// on simulated rotating register files and compares every stored value
// bit-for-bit against a sequential reference execution.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	name := fs.String("loop", "", "kernel name; empty verifies the whole curated corpus")
	lat := fs.Int("lat", 6, "floating-point latency (3 or 6)")
	regs := fs.Int("regs", 0, "registers per (sub)file; 0 = unlimited")
	iters := fs.Int("iters", 16, "iterations to execute")
	modelName := fs.String("model", "", "model to verify; empty verifies all")
	synth := fs.Int("synthetic", 0, "also verify N synthetic loops")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLatency("-lat", *lat); err != nil {
		return err
	}
	if err := checkRegSize("-regs", *regs); err != nil {
		return err
	}
	if *synth < 0 {
		return fmt.Errorf("-synthetic: loop count must be >= 0, got %d", *synth)
	}
	if *iters < 1 {
		return fmt.Errorf("-iters: iteration count must be >= 1, got %d", *iters)
	}

	models := []core.Model{core.Unified, core.Partitioned, core.Swapped}
	if *modelName != "" {
		m, err := core.ParseModel(*modelName)
		if err != nil {
			return err
		}
		models = []core.Model{m}
	}

	corpus := loops.Kernels()
	corpus = append(corpus, loops.PaperExample())
	if *name != "" {
		g, err := findLoop(*name)
		if err != nil {
			return err
		}
		corpus = corpus[:0]
		corpus = append(corpus, g)
	}
	if *synth > 0 {
		p := loopgen.Defaults()
		p.Loops = *synth
		corpus = append(corpus, loopgen.Generate(p)...)
	}

	m := machine.Eval(*lat)
	checked := 0
	for _, g := range corpus {
		for _, model := range models {
			if err := vm.VerifyModel(g, m, model, *regs, *iters); err != nil {
				return fmt.Errorf("%s under %v: %w", g.LoopName, model, err)
			}
			checked++
		}
	}
	fmt.Printf("verified %d loop/model combinations on %s (regs=%d, %d iterations): all stores bit-identical to the sequential reference\n",
		checked, m.Name(), *regs, *iters)
	return nil
}

// buildRegMap runs the base stage for a loop and constructs the register
// mapping for the requested model (swapping first for the swapped model).
func buildRegMap(name string, m *machine.Config, modelName string) (*sched.Schedule, vm.RegMap, error) {
	g, err := findLoop(name)
	if err != nil {
		return nil, nil, err
	}
	model, err := core.ParseModel(modelName)
	if err != nil {
		return nil, nil, err
	}
	b, err := pipeline.NewBase(g, m, sched.Options{})
	if err != nil {
		return nil, nil, err
	}
	s, lts := b.Sched, b.Lifetimes
	if model == core.Swapped {
		s, _ = core.Swap(s, core.SwapOptions{})
	}
	rm, err := vm.NewRegMap(model, s, lts)
	return s, rm, err
}

// cmdListing prints an assembly-like kernel listing of a scheduled,
// allocated loop.
func cmdListing(args []string) error {
	fs := flag.NewFlagSet("listing", flag.ExitOnError)
	name := fs.String("loop", "paper-example", "kernel name")
	lat := fs.Int("lat", 3, "floating-point latency (3 or 6)")
	example := fs.Bool("example-machine", false, "use the section 4 example machine")
	modelName := fs.String("model", "partitioned", "unified or partitioned/swapped")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLatency("-lat", *lat); err != nil {
		return err
	}
	m := machine.Eval(*lat)
	if *example {
		m = machine.Example()
	}
	s, rm, err := buildRegMap(*name, m, *modelName)
	if err != nil {
		return err
	}
	fmt.Print(vm.Listing(s, rm))
	return nil
}

// cmdObject emits predicated kernel-only code (stage predicates, encoded
// rotating specifiers, brtop) for a scheduled, allocated loop.
func cmdObject(args []string) error {
	fs := flag.NewFlagSet("object", flag.ExitOnError)
	name := fs.String("loop", "paper-example", "kernel name")
	lat := fs.Int("lat", 3, "floating-point latency (3 or 6)")
	example := fs.Bool("example-machine", false, "use the section 4 example machine")
	modelName := fs.String("model", "partitioned", "unified or partitioned/swapped")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLatency("-lat", *lat); err != nil {
		return err
	}
	m := machine.Eval(*lat)
	if *example {
		m = machine.Example()
	}
	s, rm, err := buildRegMap(*name, m, *modelName)
	if err != nil {
		return err
	}
	p, err := vm.Generate(s, rm)
	if err != nil {
		return err
	}
	fmt.Print(vm.Format(p))
	return nil
}
