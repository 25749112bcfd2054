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
// requests the group's shared pipeline.Base once and serves every
// (model, regs) cell of the group through the eval tiers
// (Cache.evalCells), so the spill chain — independent of both model and
// budget — is walked at most once per group instead of once per cell.
// The worker hands the group's finished rows to a reorder buffer in one
// piece, which emits them in the flat plan order, so shard files,
// `ncdrf merge` and PlanDigest compatibility are unaffected by the
// execution shape. Once a group is served, the eval entries it created
// are released (evalHolds): no later request of the run reads them, and
// the disk store stays the durable tier.

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
// appearance, and each requests its base artifact once and walks its
// spill chain at most once. Because plan order interleaves a group's
// units across the whole (model × regs) span, the reorder buffer holds
// every finished group whose first unemitted row is still behind the
// plan-order prefix — in the worst case about a plan's worth of rows,
// though a group's rows are dropped as soon as its last one is emitted.
//
// The sweep keeps no eval-stage entries: each group releases the eval
// flight entries it created once its rows are handed over, on every
// return path. Groups that share a base key (the same loop content
// listed twice) release together, after the last of them, so every
// stage counter equals that of an engine that retains everything.
func (e *Engine) SweepUnits(ctx context.Context, grid Grid, units []Unit, emit func(Result), done func()) error {
	groups := GroupUnits(units)
	out := newReorder(groups, len(units), emit)
	holds := e.holdBases(grid, groups)
	return e.ForEach(ctx, len(groups), func(gi int) error {
		g := &groups[gi]
		rows := make([]Result, len(g.Units))
		created, err := e.groupCells(ctx, grid, units, g.Units, func(k int, r Result) {
			rows[k] = r
			if done != nil {
				done()
			}
		})
		if err == nil {
			out.put(gi, rows)
		}
		holds.release(gi, created)
		return err
	})
}

// groupCells computes the listed units (indices into units, all of one
// (loop, machine) group) through the eval tiers — one base request and
// one spill walk at most — and hands each finished row to put with its
// position in idx. A cell whose group base failed carries the base
// error. Cancellation is the sweep's error, not the cell's: it is
// returned instead of handed over, so consumers never mistake it for a
// compile failure. It returns the eval entries it created (see
// Cache.evalCells), on every path.
func (e *Engine) groupCells(ctx context.Context, grid Grid, units []Unit, idx []int, put func(k int, r Result)) ([]evalKey, error) {
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
				return nil, err
			}
		}
		return nil, nil
	}
	cells := make([]pipeline.Cell, len(idx))
	for k, ui := range idx {
		cells[k] = pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs}
	}
	return e.cache.evalCells(ctx, base, cells, fill)
}

// evalHolds reference-counts base keys across one sweep's groups, so
// the eval entries of a base key are released only when the last group
// holding it is served. Without the count, a loop listed twice would
// see its second group hit or miss the first group's entries depending
// on timing; with it, every group of a base key finds the entries its
// predecessors created, exactly as in a retaining engine.
type evalHolds struct {
	cache *Cache
	// base[gi] is group gi's base key.
	base []cacheKey

	mu sync.Mutex
	// left counts each base key's groups not yet served; created holds
	// the entries its served groups created, until the last one is.
	left    map[cacheKey]int
	created map[cacheKey][]evalKey
}

// holdBases computes every group's base key and counts its holders.
func (e *Engine) holdBases(grid Grid, groups []Group) *evalHolds {
	h := &evalHolds{
		cache:   e.cache,
		base:    make([]cacheKey, len(groups)),
		left:    map[cacheKey]int{},
		created: map[cacheKey][]evalKey{},
	}
	for gi, g := range groups {
		key := e.cache.keyOf(grid.Corpus[g.Loop], grid.Machines[g.Machine], sched.Options{})
		h.base[gi] = key
		h.left[key]++
	}
	return h
}

// release records that group gi is served, having created the eval
// entries created, and drops its base key's entries once no group of
// the sweep holds the key any more.
func (h *evalHolds) release(gi int, created []evalKey) {
	key := h.base[gi]
	h.mu.Lock()
	h.left[key]--
	if h.left[key] > 0 {
		h.created[key] = append(h.created[key], created...)
		h.mu.Unlock()
		return
	}
	earlier := h.created[key]
	delete(h.created, key)
	h.mu.Unlock()
	h.cache.evals.forget(earlier)
	h.cache.evals.forget(created)
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

// reorder serializes whole groups' rows back into unit order: put
// hands over one group's rows and emits the longest ready prefix of the
// unit list, following a precomputed unit → (group, position) table. A
// group's rows are dropped as soon as its last one is emitted. Emit
// calls happen under the lock, so they are serialized.
type reorder struct {
	mu   sync.Mutex
	at   []rowAt
	rows [][]Result
	next int
	emit func(Result)
}

// rowAt locates one unit's row: its group and its position there.
type rowAt struct{ group, pos int }

func newReorder(groups []Group, units int, emit func(Result)) *reorder {
	at := make([]rowAt, units)
	for gi, g := range groups {
		for k, ui := range g.Units {
			at[ui] = rowAt{group: gi, pos: k}
		}
	}
	return &reorder{at: at, rows: make([][]Result, len(groups)), emit: emit}
}

// put hands over group g's rows, in the order of the group's Units.
func (o *reorder) put(g int, rows []Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rows[g] = rows
	for ; o.next < len(o.at); o.next++ {
		at := o.at[o.next]
		ready := o.rows[at.group]
		if ready == nil {
			return
		}
		o.emit(ready[at.pos])
		if at.pos == len(ready)-1 {
			o.rows[at.group] = nil
		}
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
