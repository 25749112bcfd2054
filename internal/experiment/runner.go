// Package experiment wires the staged pipeline (internal/pipeline) into
// the paper's evaluation runners: Table 1, Figures 6, 7, 8 and 9 and
// the cluster study. The exhibits are projections of one plan (Run):
// every (loop, machine) group the run renders goes to the engine's
// worker pool once, and one walk per group (sweep.Engine.EvalGroup)
// returns its unlimited-register requirement row and, on an evaluation
// machine of Figures 8/9, every (model, budget) cell those figures
// read. So a run builds each group's base, and reads and writes its
// store record, at most once.
package experiment

import (
	"context"
	"fmt"
	"slices"

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

// Requirements is one loop's requirement row (its base schedule's II
// and every model's unlimited-register requirement) with its name and
// trip count.
type Requirements struct {
	Name  string
	Trips int64
	pipeline.Requirement
}

// Plan names what one run measures: the machines whose requirement
// rows its exhibits read, and the Figure 8/9 configurations whose cells
// they read (every model at Regs on machine.Eval(Latency)). A machine
// named by both is one group per loop.
type Plan struct {
	Rows []*machine.Config
	Perf []PerfConfig
}

// Table1Plan is Table 1's plan: its four configurations' rows.
func Table1Plan() Plan { return Plan{Rows: machine.Table1Configs()} }

// CDFPlan is the plan of Figures 6 and 7: both evaluation machines'
// rows.
func CDFPlan() Plan { return Plan{Rows: []*machine.Config{machine.Eval(3), machine.Eval(6)}} }

// PerfPlan is the plan of Figures 8 and 9: the cells of PerfConfigs.
func PerfPlan() Plan { return Plan{Perf: PerfConfigs} }

// ClusterPlan is the cluster study's plan: the rows of each width in
// counts at latency lat.
func ClusterPlan(lat int, counts []int) Plan {
	var p Plan
	for _, nc := range counts {
		p.Rows = append(p.Rows, EvalN(nc, lat))
	}
	return p
}

// PaperPlan is the plan of `ncdrf all`: every exhibit's plan in one,
// the cluster study at latency 6. The two-cluster width is the
// latency-6 evaluation machine, so its groups serve Figures 6-9 too.
func PaperPlan() Plan {
	rows := slices.Concat(Table1Plan().Rows, CDFPlan().Rows, ClusterPlan(6, ClusterCounts).Rows)
	return Plan{Rows: rows, Perf: PerfConfigs}
}

// Study is one run of a plan over a corpus, which the exhibits project.
// It is read-only once Run returns.
type Study struct{ machines []studied }

// studied is one machine of a Study: its rows in corpus order (nil when
// the plan asked none), its Figure 8/9 cells and their curve.
type studied struct {
	m     *machine.Config
	reqs  []Requirements
	cells []pipeline.Cell
	curve *Curve
}

// Run measures plan over corpus on eng. Each (loop, machine) group of
// the plan — machines by the first appearance of their names — goes to
// the worker pool once, machine-major, and is served by one walk that
// returns its row, its cells or both. A group whose row cannot be
// measured fails the run, as does a cancelled ctx; a failed cell is
// kept in its machine's curve, which Fig8and9 reports.
func Run(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, plan Plan) (*Study, error) {
	s, n := &Study{}, len(corpus)
	add := func(m *machine.Config) *studied {
		if st := s.find(m); st != nil {
			return st
		}
		s.machines = append(s.machines, studied{m: m})
		return &s.machines[len(s.machines)-1]
	}
	for _, m := range plan.Rows {
		add(m).reqs = make([]Requirements, n)
	}
	// Cells in sweep.Grid.Plan's order, model then budget.
	for _, model := range core.Models {
		for _, cfg := range plan.Perf {
			st := add(machine.Eval(cfg.Latency))
			if c := (pipeline.Cell{Model: model, Regs: cfg.Regs}); !slices.Contains(st.cells, c) {
				st.cells = append(st.cells, c)
			}
		}
	}
	// Each machine's rows cell-major, as a sweep of its grid emits them.
	rows := make([][]pipeline.Row, len(s.machines))
	for i, st := range s.machines {
		rows[i] = make([]pipeline.Row, len(st.cells)*n)
	}
	err := eng.ForEach(ctx, len(s.machines)*n, func(gi int) error {
		st, g, li := &s.machines[gi/n], corpus[gi%n], gi%n
		var row *pipeline.Requirement
		if st.reqs != nil {
			st.reqs[li] = Requirements{Name: g.LoopName, Trips: g.TripsOrOne()}
			row = &st.reqs[li].Requirement
		}
		k := 0
		err := eng.EvalGroup(ctx, g, st.m, row, st.cells, func(mt pipeline.Metrics, err error) error {
			r := &rows[gi/n][k*n+li]
			*r = pipeline.Row{Loop: g.LoopName, Machine: st.m.Name(), Model: st.cells[k].Model.String(), Regs: st.cells[k].Regs, Trips: g.TripsOrOne()}
			r.SetMetrics(mt)
			if err != nil {
				r.Error = err.Error()
			}
			k++
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s on %s: %w", g.LoopName, st.m.Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range s.machines {
		if len(rows[i]) > 0 {
			s.machines[i].curve = BuildCurve(rows[i])
		}
	}
	return s, nil
}

// find returns the study's machine named like m, or nil.
func (s *Study) find(m *machine.Config) *studied {
	for i := range s.machines {
		if s.machines[i].m.Name() == m.Name() {
			return &s.machines[i]
		}
	}
	return nil
}

// Requirements returns the study's requirement rows on m, one per loop
// in corpus order.
func (s *Study) Requirements(m *machine.Config) ([]Requirements, error) {
	if st := s.find(m); st != nil && st.reqs != nil {
		return st.reqs, nil
	}
	return nil, fmt.Errorf("experiment: the plan measured no requirement rows on %s", m.Name())
}

// curve returns the study's Figure 8/9 cells on m as a curve.
func (s *Study) curve(m *machine.Config) (*Curve, error) {
	if st := s.find(m); st != nil && st.curve != nil {
		return st.curve, nil
	}
	return nil, fmt.Errorf("experiment: the plan measured no Figure 8/9 cells on %s", m.Name())
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
