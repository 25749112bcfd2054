// Benchmarks regenerating every table and figure of the paper, plus the
// staged-pipeline and simulation benchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// The corpus benchmarks use the full 795-loop synthetic corpus plus the
// curated kernels, exactly like the cmd/ncdrf runners, so one benchmark
// iteration is one full regeneration of the corresponding exhibit.
package ncdrf

import (
	"context"
	"io"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/experiment"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regfile"
	"ncdrf/internal/sched"
	"ncdrf/internal/sweep"
	"ncdrf/internal/vm"
)

var (
	corpusOnce sync.Once
	corpusFull []*ddg.Graph
)

func benchCorpus() []*ddg.Graph {
	corpusOnce.Do(func() {
		corpusFull = experiment.Corpus(loopgen.Defaults())
	})
	return corpusFull
}

// benchStudy runs plan over corpus on a fresh engine, so each benchmark
// iteration measures a from-scratch regeneration.
func benchStudy(b *testing.B, corpus []*ddg.Graph, plan experiment.Plan) *experiment.Study {
	st, err := experiment.Run(context.Background(), sweep.New(0), corpus, plan)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTable1 regenerates Table 1 (four PxLy configurations).
func BenchmarkTable1(b *testing.B) {
	corpus := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Table1(benchStudy(b, corpus, experiment.Table1Plan()))
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Example regenerates Table 2: the schedule and lifetimes
// of the worked example loop.
func BenchmarkTable2Example(b *testing.B) {
	g := loops.PaperExample()
	m := machine.Example()
	for i := 0; i < b.N; i++ {
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lts := lifetime.Compute(s)
		if lifetime.SumLen(lts) != 42 {
			b.Fatal("lifetime sum drifted from the paper's 42")
		}
	}
}

// BenchmarkTable3Classification regenerates Table 3: classification and
// dual allocation before swapping.
func BenchmarkTable3Classification(b *testing.B) {
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lts := lifetime.Compute(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		da, err := core.AllocateDual(core.Classify(s, lts))
		if err != nil {
			b.Fatal(err)
		}
		if da.Requirement != 29 {
			b.Fatal("partitioned requirement drifted from the paper's 29")
		}
	}
}

// BenchmarkTable4Swap regenerates Table 4: the greedy swap pass plus the
// post-swap dual allocation.
func BenchmarkTable4Swap(b *testing.B) {
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lts := lifetime.Compute(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swapped, _ := core.Swap(s, core.SwapOptions{})
		da, err := core.AllocateDual(core.Classify(swapped, lts))
		if err != nil {
			b.Fatal(err)
		}
		if da.Requirement != 23 {
			b.Fatal("swapped requirement drifted from the paper's 23")
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (static CDFs) for both latencies.
func BenchmarkFigure6(b *testing.B) {
	corpus := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := benchStudy(b, corpus, experiment.CDFPlan())
		for _, lat := range []int{3, 6} {
			res, err := experiment.FigCDF(st, lat, false)
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 (dynamic CDFs) for both latencies.
func BenchmarkFigure7(b *testing.B) {
	corpus := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := benchStudy(b, corpus, experiment.CDFPlan())
		for _, lat := range []int{3, 6} {
			res, err := experiment.FigCDF(st, lat, true)
			if err != nil {
				b.Fatal(err)
			}
			if err := res.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure8And9 regenerates Figures 8 and 9: the limited-register
// pipeline (with spilling) over all four configurations and models.
func BenchmarkFigure8And9(b *testing.B) {
	corpus := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig8and9(benchStudy(b, corpus, experiment.PerfPlan()), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.RenderFig8(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := res.RenderFig9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperPipelineSharedCache regenerates Table 1, Figures 6-9
// and the cluster study from ONE plan, the way `ncdrf all` runs: each
// (loop, machine) group is measured once for every exhibit. Compare
// against the sum of the single-exhibit benchmarks above to see the
// saving.
func BenchmarkPaperPipelineSharedCache(b *testing.B) {
	corpus := benchCorpus()
	var st sweep.StageStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := sweep.New(0)
		study, err := experiment.Run(context.Background(), eng, corpus, experiment.PaperPlan())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.Table1(study); err != nil {
			b.Fatal(err)
		}
		for _, lat := range []int{3, 6} {
			if _, err := experiment.FigCDF(study, lat, false); err != nil {
				b.Fatal(err)
			}
			if _, err := experiment.FigCDF(study, lat, true); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := experiment.Fig8and9(study, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := experiment.ClusterScaling(study, 6, experiment.ClusterCounts); err != nil {
			b.Fatal(err)
		}
		st = eng.Cache().StageStats()
	}
	b.ReportMetric(float64(st.Base.Misses), "bases/op")
	b.ReportMetric(float64(st.Schedule.Misses), "schedules/op")
}

// BenchmarkRegfileModel evaluates the section 3.2 area/access-time model
// comparison (unified vs consistent dual vs NCDRF vs doubled unified).
func BenchmarkRegfileModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		orgs := []regfile.Organization{
			regfile.Unified(64, 64, 6),
			regfile.ConsistentDual(64, 64, 6),
			regfile.NonConsistentDual(64, 64, 6),
			regfile.Unified(128, 64, 6),
		}
		var areaSum, timeSum float64
		for _, o := range orgs {
			areaSum += o.TotalArea()
			timeSum += o.AccessTime()
		}
		if areaSum <= 0 || timeSum <= 0 {
			b.Fatal("degenerate model outputs")
		}
	}
}

// BenchmarkCompileAllVsPerModel measures the staged pipeline's headline
// saving: "compile-all" evaluates the four register-file models over ONE
// shared base stage (schedule + lifetimes computed once per loop), while
// "per-model" rebuilds the base for every model, the way the monolithic
// Compile path did. Both run the curated kernels at latency 6 with a
// 32-register file, so the spilling work is identical and the delta is
// pure base-stage sharing.
func BenchmarkCompileAllVsPerModel(b *testing.B) {
	ks := loops.Kernels()
	m := machine.Eval(6)
	const regs = 32
	ctx := context.Background()
	b.Run("per-model", func(b *testing.B) {
		sc := &schedCounter{}
		for i := 0; i < b.N; i++ {
			sc.calls = 0
			for _, g := range ks {
				for _, model := range core.Models {
					base, err := pipeline.NewBaseWith(sc, g, m, sched.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := pipeline.Evaluate(ctx, sc, base, model, regs); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(sc.calls), "scheds/op")
	})
	b.Run("compile-all", func(b *testing.B) {
		sc := &schedCounter{}
		for i := 0; i < b.N; i++ {
			sc.calls = 0
			for _, g := range ks {
				if _, err := pipeline.CompileAll(ctx, sc, g, m, regs); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(sc.calls), "scheds/op")
	})
}

// schedCounter counts scheduler invocations for the staged-vs-per-model
// comparison; it does no caching, so every call is a real sched.Run.
type schedCounter struct{ calls int }

func (c *schedCounter) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	c.calls++
	return sched.Run(g, m, opts)
}

// BenchmarkPipelinedSimulation executes the kernel image of the paper's
// worked example on the simulated dual rotating register file and checks
// it against the sequential reference.
func BenchmarkPipelinedSimulation(b *testing.B) {
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dm, err := vm.NewDualMap(s, lifetime.Compute(s))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Generate(s, dm)
	if err != nil {
		b.Fatal(err)
	}
	want, err := vm.RunReference(g, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := vm.Execute(prog, 20)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.CompareStreams(want, got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnifiedVsDualRequirement reports the aggregate register needs
// of the three organizations over the kernel corpus, making the paper's
// headline effect visible in benchmark output.
func BenchmarkUnifiedVsDualRequirement(b *testing.B) {
	m := machine.Eval(6)
	type prep struct {
		s   *sched.Schedule
		lts []lifetime.Lifetime
	}
	var ps []prep
	for _, g := range loops.Kernels() {
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, prep{s, lifetime.Compute(s)})
	}
	for _, model := range []core.Model{core.Unified, core.Partitioned, core.Swapped} {
		b.Run(model.String(), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, p := range ps {
					req, _, err := core.Requirement(model, p.s, p.lts)
					if err != nil {
						b.Fatal(err)
					}
					total += req
				}
			}
			b.ReportMetric(float64(total)/float64(len(ps)), "regs/loop")
		})
	}
}
