package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/experiment"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regfile"
	"ncdrf/internal/report"
	"ncdrf/internal/sched"
	"ncdrf/internal/store"
	"ncdrf/internal/sweep"
)

func buildCorpus(o corpusOpts) ([]*ddg.Graph, error) {
	if err := checkLoopCount("-loops", *o.loops); err != nil {
		return nil, err
	}
	if *o.kernelsOnly {
		return loops.Kernels(), nil
	}
	p := loopgen.Defaults()
	p.Loops = *o.loops
	p.Seed = *o.seed
	return experiment.Corpus(p), nil
}

// runPlan measures plan over the corpus o selects.
func runPlan(ctx context.Context, eng *sweep.Engine, o corpusOpts, plan experiment.Plan) (*experiment.Study, error) {
	corpus, err := buildCorpus(o)
	if err != nil {
		return nil, err
	}
	return experiment.Run(ctx, eng, corpus, plan)
}

func cmdExample(args []string) error {
	fs := flag.NewFlagSet("example", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := loops.PaperExample()
	m := machine.Example()
	b, err := pipeline.NewBase(g, m, sched.Options{})
	if err != nil {
		return err
	}
	s, lts := b.Sched, b.Lifetimes
	fmt.Printf("machine: %s\n", m)
	fmt.Printf("loop: %s, II=%d, stages=%d\n\n", g.LoopName, s.II, s.Stages())
	fmt.Println("kernel (Figure 4):")
	fmt.Println(s.Kernel())

	tb := &report.Table{
		Title:   "Table 2: lifetimes of loop variants",
		Headers: []string{"value", "start", "end", "lifetime"},
	}
	for _, l := range lts {
		tb.Add(s.Graph.Node(l.Node).Name,
			fmt.Sprintf("%d", l.Start), fmt.Sprintf("%d", l.End), fmt.Sprintf("%d", l.Len()))
	}
	tb.Add("sum", "", "", fmt.Sprintf("%d", lifetime.SumLen(lts)))
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}

	printClasses := func(title string, sc *sched.Schedule) error {
		cl := core.Classify(sc, lts)
		tb := &report.Table{Title: title, Headers: []string{"value", "class", "registers"}}
		for _, l := range lts {
			tb.Add(sc.Graph.Node(l.Node).Name, cl.ByValue[l.Node].String(), fmt.Sprintf("%d", l.Len()))
		}
		gl, local := cl.SumByClass()
		tb.Add("GL total", "", fmt.Sprintf("%d", gl))
		for ci, v := range local {
			tb.Add(fmt.Sprintf("C%d total", ci), "", fmt.Sprintf("%d", v))
		}
		fmt.Println()
		return tb.Render(os.Stdout)
	}
	if err := printClasses("Table 3: allocation before swapping", s); err != nil {
		return err
	}
	swapped, n := core.Swap(s, core.SwapOptions{})
	if err := printClasses(fmt.Sprintf("Table 4: allocation after swapping (%d swaps)", n), swapped); err != nil {
		return err
	}

	fmt.Println()
	regs, err := b.Requirements()
	if err != nil {
		return err
	}
	tb = &report.Table{Title: "register requirements", Headers: []string{"model", "registers"}}
	for _, model := range core.Models {
		label := fmt.Sprintf("%d", regs[model])
		if model == core.Ideal {
			label = "unbounded"
		}
		tb.Add(model.String(), label)
	}
	return tb.Render(os.Stdout)
}

func cmdTable1(ctx context.Context, eng *sweep.Engine, args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	o := corpusFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := runPlan(ctx, eng, o, experiment.Table1Plan())
	if err != nil {
		return err
	}
	res, err := experiment.Table1(st)
	if err != nil {
		return err
	}
	if *csv {
		return res.RenderCSV(os.Stdout)
	}
	return res.Render(os.Stdout)
}

func cmdFigCDF(ctx context.Context, eng *sweep.Engine, args []string, dynamic bool) error {
	fs := flag.NewFlagSet("figcdf", flag.ExitOnError)
	o := corpusFlags(fs)
	chart := fs.Bool("chart", false, "render as an ASCII line chart instead of a table")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := runPlan(ctx, eng, o, experiment.CDFPlan())
	if err != nil {
		return err
	}
	for _, lat := range []int{3, 6} {
		res, err := experiment.FigCDF(st, lat, dynamic)
		if err != nil {
			return err
		}
		switch {
		case *chart:
			err = res.RenderChart(os.Stdout)
		case *csv:
			err = res.RenderCSV(os.Stdout)
		default:
			err = res.Render(os.Stdout)
		}
		if err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func cmdFigPerf(ctx context.Context, eng *sweep.Engine, args []string, wantPerf, wantDensity bool) error {
	fs := flag.NewFlagSet("figperf", flag.ExitOnError)
	o := corpusFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := runPlan(ctx, eng, o, experiment.PerfPlan())
	if err != nil {
		return err
	}
	res, err := experiment.Fig8and9(st, nil)
	if err != nil {
		return err
	}
	if wantPerf {
		if err := res.RenderFig8(os.Stdout); err != nil {
			return err
		}
	}
	if wantDensity {
		if err := res.RenderFig9(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func cmdAll(ctx context.Context, eng *sweep.Engine, args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	o := corpusFlags(fs)
	pf := addProfileFlags(fs)
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := attachCacheDir(eng, *cacheDir); err != nil {
		return err
	}
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	err = runAll(ctx, eng, o)
	if perr := stopProf(); err == nil {
		err = perr
	}
	return err
}

// runAll is cmdAll's body, split out so the profile stop function
// brackets exactly the measured work.
func runAll(ctx context.Context, eng *sweep.Engine, o corpusOpts) error {
	corpus, err := buildCorpus(o)
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d loops\n\n", len(corpus))

	if err := experiment.Stats(corpus).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	// One plan for every exhibit: each (loop, machine) group is measured
	// once, and the exhibits below are its projections.
	st, err := experiment.Run(ctx, eng, corpus, experiment.PaperPlan())
	if err != nil {
		return err
	}
	t1, err := experiment.Table1(st)
	if err != nil {
		return err
	}
	if err := t1.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	for _, dynamic := range []bool{false, true} {
		for _, lat := range []int{3, 6} {
			res, err := experiment.FigCDF(st, lat, dynamic)
			if err != nil {
				return err
			}
			if err := res.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	p, err := experiment.Fig8and9(st, nil)
	if err != nil {
		return err
	}
	if err := p.RenderFig8(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := p.RenderFig9(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	cs, err := experiment.ClusterScaling(st, 6, experiment.ClusterCounts)
	if err != nil {
		return err
	}
	if err := cs.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := cmdRegfile(nil); err != nil {
		return err
	}
	fmt.Println()
	n, err := experiment.VerifySample(ctx, eng, corpus, machine.Eval(6), 0, 10, 25)
	if err != nil {
		return err
	}
	fmt.Printf("functional verification: %d loop/model combinations executed on the simulated\n", n)
	fmt.Printf("rotating register files, all bit-identical to the sequential reference\n")
	// The trailer is rendered by StageStats.String — the one formatter
	// for the cache counters — so `all`, `sweep -stats` and the stage
	// tests cannot drift apart.
	fmt.Printf("\n%s\n", eng.Cache().StageStats())
	return nil
}

// cacheDirFlag attaches the shared -cache-dir option to a FlagSet.
func cacheDirFlag(fs *flag.FlagSet) *string {
	return fs.String("cache-dir", "", "persist one record per (loop, machine) group under this directory; a rerun with the same corpus computes no cell")
}

// attachCacheDir opens the persistent artifact store rooted at dir (when
// non-empty) and attaches it below the engine's in-memory caches.
func attachCacheDir(eng *sweep.Engine, dir string) error {
	if dir == "" {
		return nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	eng.SetStore(st)
	return nil
}

func findLoop(name string) (*ddg.Graph, error) {
	if name == "paper-example" || name == "" {
		return loops.PaperExample(), nil
	}
	if g, ok := loops.KernelByName(name); ok {
		return g, nil
	}
	return nil, fmt.Errorf("unknown loop %q (see 'ncdrf kernels')", name)
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	name := fs.String("loop", "paper-example", "kernel name")
	lat := fs.Int("lat", 3, "floating-point latency (3 or 6)")
	example := fs.Bool("example-machine", false, "use the section 4 example machine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLatency("-lat", *lat); err != nil {
		return err
	}
	g, err := findLoop(*name)
	if err != nil {
		return err
	}
	m := machine.Eval(*lat)
	if *example {
		m = machine.Example()
	}
	b, err := pipeline.NewBase(g, m, sched.Options{})
	if err != nil {
		return err
	}
	mii, res, rec, err := sched.MII(g, m)
	if err != nil {
		return err
	}
	fmt.Printf("loop %s on %s\n", g.LoopName, m)
	fmt.Printf("ResMII=%d RecMII=%d MII=%d achieved II=%d stages=%d\n\n", res, rec, mii, b.Sched.II, b.Sched.Stages())
	fmt.Println(b.Sched.Kernel())
	return nil
}

func cmdAlloc(args []string) error {
	fs := flag.NewFlagSet("alloc", flag.ExitOnError)
	name := fs.String("loop", "paper-example", "kernel name")
	lat := fs.Int("lat", 3, "floating-point latency (3 or 6)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLatency("-lat", *lat); err != nil {
		return err
	}
	g, err := findLoop(*name)
	if err != nil {
		return err
	}
	m := machine.Eval(*lat)
	b, err := pipeline.NewBase(g, m, sched.Options{})
	if err != nil {
		return err
	}
	s, lts := b.Sched, b.Lifetimes
	fmt.Printf("loop %s on %s: II=%d, %d values, MaxLive=%d\n",
		g.LoopName, m.Name(), s.II, len(lts), lifetime.MaxLive(lts, s.II))
	regs, err := b.Requirements()
	if err != nil {
		return err
	}
	tb := &report.Table{Headers: []string{"model", "registers"}}
	for _, model := range core.Models[1:] {
		tb.Add(model.String(), fmt.Sprintf("%d", regs[model]))
	}
	return tb.Render(os.Stdout)
}

func cmdKernels(args []string) error {
	names := loops.KernelNames()
	sort.Strings(names)
	for _, n := range names {
		g, _ := loops.KernelByName(n)
		fmt.Printf("%-24s %2d ops, %d trips\n", n, g.NumNodes(), g.TripsOrOne())
	}
	fmt.Printf("%-24s %2d ops, %d trips\n", "paper-example", loops.PaperExample().NumNodes(),
		loops.PaperExample().TripsOrOne())
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 795, "number of loops")
	seed := fs.Int64("seed", 1995, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkLoopCount("-n", *n); err != nil {
		return err
	}
	p := loopgen.Defaults()
	p.Loops = *n
	p.Seed = *seed
	for _, g := range loopgen.Generate(p) {
		if err := g.Encode(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	name := fs.String("loop", "paper-example", "kernel name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := findLoop(*name)
	if err != nil {
		return err
	}
	return g.DOT(os.Stdout)
}

func cmdRegfile(args []string) error {
	fs := flag.NewFlagSet("regfile", flag.ExitOnError)
	regs := fs.Int("regs", 64, "registers per (sub)file")
	bits := fs.Int("bits", 64, "bits per register")
	units := fs.Int("units", 6, "functional units")
	if err := fs.Parse(args); err != nil {
		return err
	}
	orgs := []regfile.Organization{
		regfile.Unified(*regs, *bits, *units),
		regfile.ConsistentDual(*regs, *bits, *units),
		regfile.NonConsistentDual(*regs, *bits, *units),
		regfile.Unified(2**regs, *bits, *units),
	}
	orgs[3].Name = "unified-doubled"
	tb := &report.Table{
		Title:   "Register-file implementation models (section 3.2, normalized units)",
		Headers: []string{"organization", "capacity", "area", "access time"},
	}
	for _, o := range orgs {
		tb.Add(o.Name, fmt.Sprintf("%d", o.Capacity),
			fmt.Sprintf("%.0f", o.TotalArea()), report.F2(o.AccessTime()))
	}
	return tb.Render(os.Stdout)
}
