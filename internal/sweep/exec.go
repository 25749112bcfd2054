package sweep

import (
	"context"
	"sync"

	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

// This file is the sweep executor: the two-level plan the engine runs
// grids with, group → cell. The unit list is partitioned by (loop,
// machine) into groups (GroupUnits), the unit of dispatch: one worker
// serves every (model, regs) cell of the group in one walk
// (Cache.evalCells), so the spill chain — independent of both model and
// budget — is walked at most once per group instead of once per cell,
// and the group's pipeline.Base is built only if some cell misses the
// disk. The worker hands the group's finished rows to a reorder buffer
// in one piece, which emits them in the flat plan order, so shard
// files, `ncdrf merge` and PlanDigest compatibility are unaffected by
// the execution shape. The engine keeps nothing in memory once a group
// is served; the disk store is its only durable tier.

// Sweep plans the grid and compiles every unit on the worker pool,
// calling emit once per unit. Emit calls are serialized and follow plan
// order — results are reordered as workers finish, so the output stream
// is deterministic and shard outputs merge byte-identically with an
// unsharded run. Per-unit compile failures are reported inside the
// Result, not as an error; Sweep's own error is non-nil when ctx is
// cancelled (in which case not-yet-emittable results are discarded with
// the rest of the run) or when the grid has an empty axis and could
// only emit nothing.
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
// appearance, and each requests its base artifact and walks its spill
// chain at most once. Emit runs on the worker whose put made the next
// rows ready, and no other put waits for it. Because plan order
// interleaves a group's units across the whole (model × regs) span,
// the reorder buffer holds every finished group whose first unemitted
// row is still behind the plan-order prefix — in the worst case about
// a plan's worth of rows, though a group's rows are dropped as soon as
// its last one is emitted.
// Groups share nothing: a corpus that lists one loop's content twice
// builds its base and evaluates its cells once per listing.
func (e *Engine) SweepUnits(ctx context.Context, grid Grid, units []Unit, emit func(Result), done func()) error {
	groups := GroupUnits(units)
	out := newReorder(grid, units, groups, emit)
	return e.ForEach(ctx, len(groups), func(gi int) error {
		rows, err := e.groupCells(ctx, grid, units, groups[gi], done)
		if err == nil {
			out.put(gi, rows)
		}
		return err
	})
}

// groupCells computes the cells of group g — indices into units, all
// of one (loop, machine) — with one base request and one spill walk at
// most, and returns their rows, calling done (when non-nil) as each
// cell finishes. The base is requested only if some cell misses the
// disk, and a cell whose group base failed carries the base error.
// Cancellation is the sweep's error, not the cell's: it is returned
// instead of recorded, so consumers never mistake it for a compile
// failure.
func (e *Engine) groupCells(ctx context.Context, grid Grid, units []Unit, g Group, done func()) (groupRows, error) {
	rows := groupRows{cells: make([]cellRow, 0, len(g.Units))}
	add := func(m pipeline.Metrics, err error) error {
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		rows.add(m, err)
		if done != nil {
			done()
		}
		return nil
	}
	cells := make([]pipeline.Cell, len(g.Units))
	for k, ui := range g.Units {
		cells[k] = pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs}
	}
	err := e.cache.evalCells(ctx, grid.Corpus[g.Loop], grid.Machines[g.Machine], sched.Options{}, cells, add)
	return rows, err
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

// groupRows is one group's finished cells in the order of its Units,
// as the reorder buffer holds them until emission: fixed-size metric
// records, with the few error messages in a side list. The identity of
// each row is rebuilt from the grid at emit time (rowFor), so the
// records hold no pointers for the collector to scan.
type groupRows struct {
	cells []cellRow
	errs  []string
}

// cellRow is one finished cell: its metrics, zero for a failed cell,
// and 1 + the index of its error in the group's errs, or 0.
type cellRow struct {
	pipeline.Metrics
	err int32
}

// add appends one cell's outcome: its metrics, or its error.
func (g *groupRows) add(m pipeline.Metrics, err error) {
	if err != nil {
		g.errs = append(g.errs, err.Error())
		g.cells = append(g.cells, cellRow{err: int32(len(g.errs))})
		return
	}
	g.cells = append(g.cells, cellRow{Metrics: m})
}

// reorder serializes whole groups' rows back into unit order along a
// unit → (group, position) table, dropping a group's rows once its last
// is emitted. put stores rows under the lock; at most one put at a time
// emits the ready prefix, outside the lock, until none is left, and a
// put that finds an emission in progress returns at once.
type reorder struct {
	grid     Grid
	units    []Unit
	at       []rowAt
	emit     func(Result)
	mu       sync.Mutex
	rows     []groupRows // a ready group's entry is the emitter's alone
	next     int         // the first unit no emitter has taken
	emitting bool
}

// rowAt locates one unit's row: its group and its position there.
type rowAt struct{ group, pos int }

func newReorder(grid Grid, units []Unit, groups []Group, emit func(Result)) *reorder {
	at := make([]rowAt, len(units))
	for gi, g := range groups {
		for k, ui := range g.Units {
			at[ui] = rowAt{group: gi, pos: k}
		}
	}
	return &reorder{grid: grid, units: units, at: at, rows: make([]groupRows, len(groups)), emit: emit}
}

// put hands over group g's rows, in the order of the group's Units.
func (o *reorder) put(g int, rows groupRows) {
	o.mu.Lock()
	o.rows[g] = rows
	if o.emitting {
		o.mu.Unlock()
		return
	}
	o.emitting = true
	for {
		from := o.next
		for o.next < len(o.at) && o.rows[o.at[o.next].group].cells != nil {
			o.next++
		}
		to := o.next
		if from == to {
			break
		}
		o.mu.Unlock()
		for ui := from; ui < to; ui++ {
			at := o.at[ui]
			ready := &o.rows[at.group]
			c := ready.cells[at.pos]
			r := rowFor(o.grid, o.units[ui])
			r.SetMetrics(c.Metrics)
			if c.err > 0 {
				r.Error = ready.errs[c.err-1]
			}
			o.emit(r)
			if at.pos == len(ready.cells)-1 {
				*ready = groupRows{}
			}
		}
		o.mu.Lock()
	}
	o.emitting = false
	o.mu.Unlock()
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
