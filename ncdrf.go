// Package ncdrf is a library reproduction of "Non-Consistent Dual
// Register Files to Reduce Register Pressure" (J. Llosa, M. Valero,
// E. Ayguadé, HPCA 1995).
//
// The paper proposes implementing a VLIW processor's floating-point
// register file as two independently addressed subfiles, one per cluster
// of functional units: values consumed by both clusters are replicated in
// both subfiles ("global" values), values consumed by a single cluster
// are stored only there ("local" values). Because most register instances
// are read exactly once, most values are local, so the organization holds
// almost twice the values of a consistent dual file at identical area and
// access time. A greedy post-scheduling pass that swaps same-cycle
// operations between clusters reduces the register requirements further.
//
// This package is the public facade over the staged compilation pipeline
// (internal/pipeline): a loop is parsed once, modulo-scheduled once per
// machine, its lifetimes analysed once, and every register-file model is
// then classified, allocated and spilled on top of those shared immutable
// base artifacts:
//
//   - ParseLoop compiles a textual loop (LIR) into a dependence graph;
//   - Compile runs the staged pipeline for one loop under one model;
//   - CompileAll evaluates all four models over one shared base schedule,
//     so the scheduler and lifetime analysis run once instead of per model;
//   - Requirements reports the register needs of all models at once;
//   - Experiments regenerates every table and figure of the paper.
//
// See the examples directory for runnable walkthroughs and DESIGN.md for
// the stage graph, artifact ownership rules and record key scheme.
package ncdrf

import (
	"context"
	"fmt"
	"io"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lir"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/vm"
)

// Model selects a register-file organization (the four models of the
// paper's evaluation).
type Model int

const (
	// Ideal is an infinite register file (performance upper bound).
	Ideal Model = iota
	// Unified is a single register file reachable by every functional
	// unit; it also models the consistent (POWER2-style) dual file.
	Unified
	// Partitioned is the non-consistent dual register file.
	Partitioned
	// Swapped is Partitioned plus the greedy operation-swapping pass.
	Swapped

	// NumModels is the number of register-file models; CompileAll returns
	// one Result per model, indexed by Model.
	NumModels = core.NumModels
)

// Models lists all models in the paper's presentation order.
var Models = []Model{Ideal, Unified, Partitioned, Swapped}

// String returns the paper's name for the model, or "Model(n)" for an
// out-of-range value.
func (m Model) String() string {
	cm, err := m.internal()
	if err != nil {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return cm.String()
}

func (m Model) internal() (core.Model, error) {
	switch m {
	case Ideal:
		return core.Ideal, nil
	case Unified:
		return core.Unified, nil
	case Partitioned:
		return core.Partitioned, nil
	case Swapped:
		return core.Swapped, nil
	default:
		return 0, fmt.Errorf("ncdrf: invalid model Model(%d): valid models are Ideal, Unified, Partitioned and Swapped", int(m))
	}
}

// Loop is a compiled loop body: a single-basic-block data-dependence
// graph plus a trip count.
type Loop struct {
	g *ddg.Graph
}

// ParseLoop compiles LIR source text into a Loop. See the lir package
// documentation (internal/lir) for the grammar; in short:
//
//	loop daxpy trips 1000
//	invariant a
//	x1 = load x
//	m1 = fmul a, x1
//	y1 = load y
//	s1 = fadd m1, y1
//	store y, s1
func ParseLoop(src string) (*Loop, error) {
	g, err := lir.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Loop{g: g}, nil
}

// PaperExample returns the worked example loop of section 4 of the paper.
func PaperExample() *Loop { return &Loop{g: loops.PaperExample()} }

// KernelLoop returns a curated corpus kernel by name.
func KernelLoop(name string) (*Loop, error) {
	g, ok := loops.KernelByName(name)
	if !ok {
		return nil, fmt.Errorf("ncdrf: unknown kernel %q", name)
	}
	return &Loop{g: g}, nil
}

// KernelNames lists the curated corpus kernels.
func KernelNames() []string { return loops.KernelNames() }

// Name returns the loop's name.
func (l *Loop) Name() string { return l.g.LoopName }

// Ops returns the number of operations in the loop body.
func (l *Loop) Ops() int { return l.g.NumNodes() }

// Trips returns the loop's trip count used for dynamic weighting.
func (l *Loop) Trips() int64 { return l.g.TripsOrOne() }

// DOT writes the loop's dependence graph in Graphviz format.
func (l *Loop) DOT(w io.Writer) error { return l.g.DOT(w) }

// Machine describes a clustered VLIW target.
type Machine struct {
	cfg *machine.Config
}

// EvalMachine returns the paper's evaluation machine (section 5.2): two
// clusters of {1 FP adder, 1 FP multiplier, 1 load/store unit}, with the
// given floating-point latency (the paper uses 3 and 6) and single-cycle
// memory.
func EvalMachine(latency int) Machine { return Machine{cfg: machine.Eval(latency)} }

// ExampleMachine returns the section 4 example machine: two clusters of
// {1 adder, 1 multiplier, 2 load/store units}, latency 3/3/1.
func ExampleMachine() Machine { return Machine{cfg: machine.Example()} }

// TableMachine returns the Table 1 configuration PxLy: x adders and x
// multipliers of latency y, one store and two load ports, unified.
func TableMachine(x, y int) Machine { return Machine{cfg: machine.PxLy(x, y)} }

// NewMachine builds a custom clustered machine. clusters[i] gives the
// {adders, multipliers, memory ports} of cluster i.
func NewMachine(name string, clusters [][3]int, addLat, mulLat, memLat int) (Machine, error) {
	specs := make([]machine.ClusterSpec, len(clusters))
	for i, c := range clusters {
		specs[i] = machine.ClusterSpec{Adders: c[0], Multipliers: c[1], MemPorts: c[2]}
	}
	cfg, err := machine.New(name, specs, addLat, mulLat, memLat)
	if err != nil {
		return Machine{}, err
	}
	return Machine{cfg: cfg}, nil
}

// String describes the machine.
func (m Machine) String() string { return m.cfg.String() }

// Result is the outcome of compiling one loop under one model.
type Result struct {
	// Model is the register-file organization used.
	Model Model
	// II is the achieved initiation interval in cycles.
	II int
	// Registers is the register requirement of the final schedule
	// (per subfile for the dual organizations); 0 for Ideal.
	Registers int
	// SpilledValues is the number of values the spiller pushed to
	// memory to make the loop fit.
	SpilledValues int
	// MemOps is the number of memory operations per iteration,
	// including spill code.
	MemOps int
	// Cycles is the steady-state execution time (II * trips).
	Cycles int64

	final *sched.Schedule
}

// Kernel renders the steady-state kernel of the final schedule. The
// rendering is built lazily, on demand: most consumers (sweeps, figure
// runners) never print it, and building it eagerly for every work unit
// was measurable overhead. It returns "" on a Result not produced by
// Compile or CompileAll (which is the only way to obtain a full one).
func (r *Result) Kernel() string {
	if r.final == nil {
		return ""
	}
	return r.final.Kernel()
}

// newResult shapes one staged per-model outcome for the public facade,
// running the (lazy) measurement stage: the facade reports Registers, so
// it pays for the measurement; bulk consumers (sweeps, figures) do not.
func newResult(l *Loop, model Model, mr *pipeline.ModelResult) (*Result, error) {
	req, final, err := mr.Requirement()
	if err != nil {
		return nil, err
	}
	return &Result{
		Model:         model,
		II:            final.II,
		Registers:     req,
		SpilledValues: mr.SpilledValues,
		MemOps:        mr.MemOps(),
		Cycles:        int64(final.II) * l.g.TripsOrOne(),
		final:         final,
	}, nil
}

// Compile runs the staged pipeline for one loop under one model: modulo
// scheduling, value classification, rotating register allocation under
// the model, and the naive spill loop when regs registers (per subfile)
// do not suffice. regs <= 0 means unlimited. To evaluate several models
// of the same loop, CompileAll shares the scheduling work between them.
func Compile(l *Loop, m Machine, model Model, regs int) (*Result, error) {
	cm, err := model.internal()
	if err != nil {
		return nil, err
	}
	b, err := pipeline.NewBase(l.g, m.cfg, sched.Options{})
	if err != nil {
		return nil, err
	}
	//lint:allow ctxflow -- Compile is the documented ctx-free facade; CompileAll is the threaded form
	mr, err := pipeline.Evaluate(context.Background(), nil, b, cm, regs)
	if err != nil {
		return nil, err
	}
	return newResult(l, model, mr)
}

// CompileAll evaluates every register-file model of the loop over one
// shared base stage: the modulo schedule and the lifetime analysis are
// computed once and all four models are classified, allocated and (if
// needed) spilled on top of them. The result is indexed by Model. ctx
// cancels the evaluation between pipeline stages and spill rounds.
func CompileAll(ctx context.Context, l *Loop, m Machine, regs int) ([NumModels]*Result, error) {
	var out [NumModels]*Result
	mrs, err := pipeline.CompileAll(ctx, nil, l.g, m.cfg, regs)
	if err != nil {
		return out, err
	}
	for i, mr := range mrs {
		if out[i], err = newResult(l, Model(i), mr); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Verify compiles the loop under the model (spilling at the given file
// size, 0 = unlimited), executes the result on simulated rotating
// register files — unified or non-consistent dual, per the model — for
// iters iterations, and compares every stored value bit-for-bit against
// a sequential reference execution of the original loop. A nil return
// certifies the schedule, the allocation, the classification and any
// spill code for this loop.
func Verify(l *Loop, m Machine, model Model, regs, iters int) error {
	cm, err := model.internal()
	if err != nil {
		return err
	}
	return vm.VerifyModel(l.g, m.cfg, cm, regs, iters)
}

// Requirements returns the unlimited-register requirement of the loop
// under every model (Ideal maps to 0), plus the schedule's II. It is a
// thin wrapper over the base stage: one schedule, one lifetime analysis,
// one requirement pass for every model.
func Requirements(l *Loop, m Machine) (map[Model]int, int, error) {
	b, err := pipeline.NewBase(l.g, m.cfg, sched.Options{})
	if err != nil {
		return nil, 0, err
	}
	regs, err := b.Requirements()
	if err != nil {
		return nil, 0, err
	}
	out := make(map[Model]int, len(Models))
	for _, model := range Models {
		cm, _ := model.internal() // Models holds only valid models
		out[model] = regs[cm]
	}
	return out, b.Sched.II, nil
}
