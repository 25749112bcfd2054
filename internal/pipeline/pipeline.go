// Package pipeline decomposes loop compilation into explicit, immutable,
// individually cacheable stages:
//
//	Parsed (ddg.Graph)
//	   └─ BaseSchedule + Lifetimes  (one per loop × machine × options)
//	         └─ per model: Classified → Allocated → Spilled
//
// The base schedule and its lifetimes are shared by every register-file
// model: the paper's four organizations (Ideal, Unified, Partitioned,
// Swapped) are evaluated over the *same* modulo schedule — only
// classification, allocation and spilling differ — so the scheduler and
// the lifetime analysis run once per (loop, machine) and each model's
// evaluation starts from the shared Base artifact instead of re-entering
// the scheduler from scratch.
//
// Artifacts are immutable after construction (see DESIGN.md for the
// ownership rules): a Base is never modified by any model stage, and a
// ModelResult's schedule is either the shared base schedule or a fresh
// one produced by spilling/swapping — never an in-place rewrite of the
// base. This is what makes the stages safe to cache and share across
// concurrent consumers (internal/sweep does exactly that).
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
)

// Scheduler abstracts sched.Run so every stage can be driven through the
// engine's stage caches; it is the same seam the spill loop uses.
type Scheduler = spill.Scheduler

// Base is the model-independent stage of the pipeline: the parsed loop,
// its modulo schedule on one machine, and the value lifetimes of that
// schedule. A Base is immutable after construction and shared — possibly
// concurrently — by every model evaluated on top of it.
type Base struct {
	// Graph is the parsed loop. Stages never mutate it; spilling works on
	// a private clone.
	Graph *ddg.Graph
	// Machine is the target configuration.
	Machine *machine.Config
	// Opts are the scheduling options the base schedule was computed with.
	Opts sched.Options
	// Sched is the base modulo schedule. Read-only; the swap pass copies
	// before rebalancing.
	Sched *sched.Schedule
	// Lifetimes are the value lifetimes of Sched, in node-ID order.
	// Lifetimes depend only on issue cycles, so they also hold for any
	// swap-rebalanced variant of the base schedule.
	Lifetimes []lifetime.Lifetime
}

// NewBase computes the base stage directly with sched.Run.
func NewBase(g *ddg.Graph, m *machine.Config, opts sched.Options) (*Base, error) {
	return NewBaseWith(nil, g, m, opts)
}

// NewBaseWith is NewBase with the scheduling request routed through sr
// (e.g. the sweep engine); a nil sr schedules directly. The base
// schedule's Graph may be g itself.
func NewBaseWith(sr Scheduler, g *ddg.Graph, m *machine.Config, opts sched.Options) (*Base, error) {
	schedule := sched.Run
	if sr != nil {
		schedule = sr.Schedule
	}
	s, err := schedule(g, m, opts)
	if err != nil {
		return nil, err
	}
	return &Base{Graph: g, Machine: m, Opts: opts, Sched: s, Lifetimes: lifetime.Compute(s)}, nil
}

// Requirements runs the unlimited-register Classified → Allocated
// stages for every model on the shared base artifacts: the per-(sub)file
// register requirement of each, indexed by core.Model, from one
// core.Requirements pass. Ideal requires 0 registers.
func (b *Base) Requirements() ([core.NumModels]int, error) {
	return core.Requirements(b.Sched, b.Lifetimes)
}

// seed converts the base artifacts into the spill loop's first-round
// schedule, so evaluating a model does not re-enter the scheduler for
// work the base stage already did.
func (b *Base) seed() *spill.Seed {
	return &spill.Seed{Sched: b.Sched, Lifetimes: b.Lifetimes}
}

// ModelResult is the outcome of the per-model stage chain (Classified →
// Allocated → Spilled) for one register-file size. Like every pipeline
// artifact it is immutable after construction (the lazy measurement
// below is an idempotent cached accessor, safe for concurrent use).
type ModelResult struct {
	// Model is the register-file organization evaluated.
	Model core.Model
	// Sched is the final fitting schedule from the spill loop: the shared
	// base schedule when the loop fits untouched, otherwise a fresh
	// spilled and/or swap-rebalanced schedule.
	Sched *sched.Schedule
	// Graph is the final dependence graph including spill code; it is the
	// base graph itself when nothing was spilled, and otherwise the final
	// schedule's graph: a copy the spill walk kept, or a graph decoded
	// from the store. Read-only either way.
	Graph *ddg.Graph
	// Lifetimes are the value lifetimes of the final schedule.
	Lifetimes []lifetime.Lifetime
	// SpilledValues counts values pushed to memory to make the loop fit.
	SpilledValues int
	// SpillStores and SpillLoads count inserted memory operations.
	SpillStores, SpillLoads int
	// IIBumps counts forced initiation-interval increases.
	IIBumps int
	// Iterations is the number of schedule/allocate rounds executed.
	Iterations int

	measure struct {
		once  sync.Once
		req   int
		sched *sched.Schedule
		err   error
	}
}

// MemOps returns the final number of memory operations per iteration,
// including spill code.
func (r *ModelResult) MemOps() int { return r.Graph.MemOps() }

// Requirement measures the register requirement of the final schedule
// under the model (per subfile for the dual organizations; 0 for Ideal)
// and returns the — possibly swap-rebalanced — schedule it was measured
// on. Measurement is the one per-model stage that is lazy: for the
// Swapped model it runs the greedy swap descent, which figure runners
// evaluating thousands of (loop, regs) cells never need. The result is
// computed once and cached; concurrent callers share it.
func (r *ModelResult) Requirement() (int, *sched.Schedule, error) {
	r.measure.once.Do(func() {
		if r.Model == core.Ideal {
			r.measure.sched = r.Sched
			return
		}
		r.measure.req, r.measure.sched, r.measure.err = core.Requirement(r.Model, r.Sched, r.Lifetimes)
	})
	return r.measure.req, r.measure.sched, r.measure.err
}

// Evaluate runs the per-model stage chain on top of a shared base:
// classify and allocate the base schedule under the model, and spill (on
// a private clone of the base graph) until the allocation fits in regs
// registers per (sub)file (regs <= 0 = unlimited). The base artifacts
// are consumed read-only; the scheduler only runs for post-spill rounds,
// never for the base schedule itself. The requirement measurement is
// deferred to ModelResult.Requirement. Evaluate is the one-cell case of
// EvaluateCells.
func Evaluate(ctx context.Context, sr Scheduler, b *Base, model core.Model, regs int) (*ModelResult, error) {
	res, errs := EvaluateCells(ctx, sr, b, []Cell{{Model: model, Regs: regs}})
	return res[0], errs[0]
}

// Cell is one (model, register budget) evaluation over a shared base.
type Cell struct {
	Model core.Model
	Regs  int
}

// EvaluateCells evaluates every cell over the shared base with a single
// walk of the spill chain (spill.RunSeries): the chain depends on
// neither the model nor the budget, so each cell takes the first round
// that fits it, with the result Evaluate would return for that cell
// alone, and the models share each round's fit work (core.RoundFits).
// The Ideal model fits every budget at round 0. Results and errors are
// indexed like cells; errs[i] is non-nil exactly when results[i] is
// nil. A spilled result's Graph is its final schedule's graph.
func EvaluateCells(ctx context.Context, sr Scheduler, b *Base, cells []Cell) ([]*ModelResult, []error) {
	res, errs := b.walk(ctx, sr, cells)
	out := make([]*ModelResult, len(res))
	for i, r := range res {
		if r != nil {
			out[i] = modelResult(cells[i].Model, r)
		}
	}
	return out, errs
}

// modelResult is the ModelResult of a walk's result r under model.
func modelResult(model core.Model, r *spill.Result) *ModelResult {
	return &ModelResult{
		Model:         model,
		Sched:         r.Sched,
		Graph:         r.Graph,
		Lifetimes:     r.Lifetimes,
		SpilledValues: r.SpilledValues,
		SpillStores:   r.SpillStores,
		SpillLoads:    r.SpillLoads,
		IIBumps:       r.IIBumps,
		Iterations:    r.Iterations,
	}
}

// MeasureCells is Measure over EvaluateCells, indexed like cells, with
// each distinct spill.Result the walk shares between cells measured
// once: its cost follows the walk's rounds rather than its cells.
func MeasureCells(ctx context.Context, sr Scheduler, b *Base, cells []Cell) ([]Metrics, []error) {
	res, errs := b.walk(ctx, sr, cells)
	out := make([]Metrics, len(res))
	for i, r := range res {
		switch j := slices.Index(res, r); {
		case r == nil:
		case j < i:
			out[i] = out[j] // measured with the first cell sharing r
		default:
			out[i] = Measure(modelResult(cells[i].Model, r))
		}
	}
	return out, errs
}

// walk runs b's spill chain once for all cells (spill.RunSeries).
func (b *Base) walk(ctx context.Context, sr Scheduler, cells []Cell) ([]*spill.Result, []error) {
	walk := make([]spill.Cell, len(cells))
	for i, c := range cells {
		walk[i] = spill.Cell{Test: int(c.Model), Regs: c.Regs}
	}
	rounds := core.RoundFits()
	var test func(core.Model, int) (*sched.Schedule, bool)
	byModel := func(model, regs int) (*sched.Schedule, bool) { return test(core.Model(model), regs) }
	fit := func(s *sched.Schedule, lts []lifetime.Lifetime) func(int, int) (*sched.Schedule, bool) {
		test = rounds(s, lts)
		return byModel
	}
	return spill.RunSeries(ctx, sr, b.Graph, b.Machine, walk, fit, b.Opts, b.seed())
}

// EvaluateAll evaluates every model over one shared base, in the paper's
// presentation order, with one walk of the spill chain for all four.
// The base schedule and lifetimes are computed once (by the caller,
// building b) and reused by every model.
func EvaluateAll(ctx context.Context, sr Scheduler, b *Base, regs int) ([core.NumModels]*ModelResult, error) {
	var out [core.NumModels]*ModelResult
	cells := make([]Cell, len(core.Models))
	for i, model := range core.Models {
		cells[i] = Cell{Model: model, Regs: regs}
	}
	res, errs := EvaluateCells(ctx, sr, b, cells)
	for i, model := range core.Models {
		if errs[i] != nil {
			return out, fmt.Errorf("%s/%v: %w", b.Graph.LoopName, model, errs[i])
		}
		out[model] = res[i]
	}
	return out, nil
}

// CompileAll is the one-call form of the staged pipeline for a single
// loop: build the base stage, then evaluate every model on it.
func CompileAll(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, regs int) ([core.NumModels]*ModelResult, error) {
	var zero [core.NumModels]*ModelResult
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	b, err := NewBaseWith(sr, g, m, sched.Options{})
	if err != nil {
		return zero, err
	}
	return EvaluateAll(ctx, sr, b, regs)
}
