package sweep

import (
	"context"
	"sync"

	"ncdrf/internal/pipeline"
)

// This file is the sweep executor: the two-level plan the engine runs
// grids with, group → cell. The unit list is partitioned by (loop,
// machine) into groups (GroupUnits), the unit of dispatch: one worker
// requests the group's shared pipeline.Base once and serves every
// (model, regs) cell of the group through the eval tiers
// (Cache.evalCells), so the spill chain — independent of both model and
// budget — is walked at most once per group instead of once per cell. A
// reorder buffer keyed by the unit's original index keeps the emitted
// stream byte-identical to the flat plan-order stream, so shard files,
// `ncdrf merge` and PlanDigest compatibility are unaffected by the
// execution shape.

// Sweep plans the grid and compiles every unit on the worker pool,
// calling emit once per unit. Emit calls are serialized and follow plan
// order — results are reordered as workers finish, so the output stream
// is deterministic and shard outputs merge byte-identically with an
// unsharded run. Per-unit compile failures are reported inside the
// Result, not as an error; Sweep's own error is non-nil when ctx is
// cancelled (in which case not-yet-emittable buffered results are
// discarded with the rest of the run) or when the grid has an empty
// axis and could only emit nothing.
func (e *Engine) Sweep(ctx context.Context, grid Grid, emit func(Result)) error {
	if err := grid.Validate(); err != nil {
		return err
	}
	return e.SweepUnits(ctx, grid, grid.Plan(), emit, nil)
}

// SweepUnits is Sweep over an explicit unit list — a whole plan or one
// Shard of it. Units index into grid's Corpus and Machines; emit calls
// are serialized and follow the order of units.
//
// done, when non-nil, is called (concurrently) as each unit finishes
// computing — possibly long before its row is emittable, since
// group-major completion order runs ahead of unit-order emission.
// Progress reporters hang off this hook; counting emitted rows instead
// would underreport by the reorder buffer's depth.
//
// Execution is group → cell: groups are dispatched in order of first
// appearance, and each requests its base artifact once and walks its
// spill chain at most once. Because plan order interleaves a group's
// units across the whole (model × regs) span, the reorder buffer can
// hold up to roughly a plan's worth of finished rows in the worst case
// — rows are small value structs, so a dense corpus-wide curve stays in
// the tens of megabytes.
func (e *Engine) SweepUnits(ctx context.Context, grid Grid, units []Unit, emit func(Result), done func()) error {
	groups := GroupUnits(units)
	out := newReorder(emit)
	return e.ForEach(ctx, len(groups), func(gi int) error {
		g := &groups[gi]
		return e.groupCells(ctx, grid, units, g.Units, func(k int, r Result) {
			if done != nil {
				done()
			}
			out.put(g.Units[k], r)
		})
	})
}

// groupCells computes the listed units (indices into units, all of one
// (loop, machine) group) through the eval tiers — one base request and
// one spill walk at most — and hands each finished row to put with its
// position in idx. A cell whose group base failed carries the base
// error. Cancellation is the sweep's error, not the cell's: it is
// returned instead of emitted, so consumers never mistake it for a
// compile failure.
func (e *Engine) groupCells(ctx context.Context, grid Grid, units []Unit, idx []int, put func(k int, r Result)) error {
	first := units[idx[0]]
	base, baseErr := e.Base(ctx, grid.Corpus[first.Loop], grid.Machines[first.Machine])
	fill := func(k int, res *pipeline.ModelResult, err error) error {
		r := rowFor(grid, units[idx[k]])
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			r.Error = err.Error()
		} else {
			r.Fill(res)
		}
		put(k, r)
		return nil
	}
	if baseErr != nil {
		for k := range idx {
			if err := fill(k, nil, baseErr); err != nil {
				return err
			}
		}
		return nil
	}
	cells := make([]pipeline.Cell, len(idx))
	for k, ui := range idx {
		cells[k] = pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs}
	}
	return e.cache.evalCells(ctx, base, cells, fill)
}

// rowFor starts the result row of one unit with its cell identity.
func rowFor(grid Grid, u Unit) Result {
	g, m := grid.Corpus[u.Loop], grid.Machines[u.Machine]
	return Result{
		Loop:    g.LoopName,
		Machine: m.Name(),
		Model:   u.Model.String(),
		Regs:    u.Regs,
		Trips:   g.TripsOrOne(),
	}
}

// reorder serializes out-of-order results back into index order: put
// buffers each finished row under its original index and releases the
// longest emittable prefix. Emit calls happen under the lock, so they
// are serialized exactly like the pre-buffer contract promised.
type reorder struct {
	mu      sync.Mutex
	pending map[int]Result
	next    int
	emit    func(Result)
}

func newReorder(emit func(Result)) *reorder {
	return &reorder{pending: map[int]Result{}, emit: emit}
}

func (o *reorder) put(i int, r Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pending[i] = r
	for {
		ready, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.next++
		o.emit(ready)
	}
}

// Rows runs the grid and collects the emitted stream, in plan order —
// the convenience form consumers that aggregate (rather than stream)
// use, e.g. the register-sensitivity curve builder.
func (e *Engine) Rows(ctx context.Context, grid Grid) ([]Result, error) {
	var out []Result
	if err := e.Sweep(ctx, grid, func(r Result) { out = append(out, r) }); err != nil {
		return nil, err
	}
	return out, nil
}
