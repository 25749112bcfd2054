// Package sweep is the batch evaluation engine behind every experiment
// runner: it executes (corpus × machine × model × register-size) grids on
// a bounded, cancellable worker pool and shares pipeline work across
// consumers through content-addressed stage caches.
//
// # Cache key scheme
//
// A schedule is fully determined by three inputs, which together form the
// cache key:
//
//   - the dependence graph, identified by the SHA-256 digest of its
//     canonical text encoding (ddg.(*Graph).Encode — loop header, nodes
//     in ID order, edges in insertion order). Content addressing makes
//     the cache correct under the spiller's in-place graph rewrites:
//     after spill code is inserted the encoding changes, so the rewritten
//     graph is a different key;
//   - the machine configuration, identified by its Name(). Configs are
//     immutable after construction and the presets give every distinct
//     configuration a distinct name; callers constructing machines by
//     hand must follow the same rule;
//   - the sched.Options value (a small comparable struct), so the
//     spiller's forced-MinII retries do not collide with the defaults.
//
// Cached artifacts are shared between consumers and must be treated as
// read-only; every consumer in this repository already does (core.Swap
// copies before rebalancing).
//
// Hit/miss counters are exported per stage through Cache.StageStats:
// Misses is the number of artifacts actually computed, Hits the number
// of requests the in-memory tier absorbed, DiskHits the number served
// by the optional persistent tier.
//
// # Tiers
//
// Every stage shares the key scheme above and stacks (up to) two tiers:
//
//	flight  — one generic in-memory single-flight implementation per
//	          stage (see flight.go), parameterized only on error
//	          retention; shares in-flight work within the process. The
//	          schedule stage has none: it computes on the caller's graph
//	          itself, with no clone, or reads from disk.
//	store   — an optional content-addressed on-disk artifact store
//	          (internal/store, attached with Engine.SetStore): a miss
//	          reads through it before computing, and computed
//	          schedule/eval artifacts are written behind it, making a
//	          second process's run incremental.
package sweep

import (
	"context"
	"runtime"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/store"
)

// Engine bundles the stage caches with a worker-pool width. The zero
// value is not useful; construct with New. One Engine is meant to be
// shared across every runner of a process (that is where the cross-figure
// cache sharing comes from) and is safe for concurrent use.
type Engine struct {
	cache   *Cache
	workers int

	// memos shares whole result sets between runners; see Memo.
	memos *flight[string, any]
}

// New returns an engine with the given worker-pool width; workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cache:   NewCache(),
		workers: workers,
		memos:   newFlight[string, any](retainDeterministic),
	}
}

// SetStore attaches a persistent artifact store as the tier below the
// in-memory caches, making runs incremental across processes: schedule
// and eval artifacts are read through and written behind the memory
// tier. Attach before the engine serves its first request.
func (e *Engine) SetStore(st *store.Store) { e.cache.SetStore(st) }

// Store returns the attached persistent tier, or nil.
func (e *Engine) Store() *store.Store { return e.cache.Store() }

// Cache returns the engine's stage caches (for stats reporting).
func (e *Engine) Cache() *Cache { return e.cache }

// Schedule modulo-schedules g on m through the cache. It implements
// spill.Scheduler, so the engine can be plugged into the spill loop.
func (e *Engine) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	return e.cache.Schedule(g, m, opts)
}

// Forget forwards to Cache.Forget so the engine itself satisfies the
// spill loop's optional working-graph cleanup interface (VerifySample
// hands the engine, not the cache, to vm.VerifyModelWith).
func (e *Engine) Forget(g *ddg.Graph) { e.cache.Forget(g) }

// Base returns the shared base-stage artifact (schedule + lifetimes) of
// g on m with default options, served through the stage cache.
func (e *Engine) Base(ctx context.Context, g *ddg.Graph, m *machine.Config) (*pipeline.Base, error) {
	return e.cache.Base(ctx, g, m, sched.Options{})
}

// Compile runs the staged per-model pipeline for one loop — classify and
// allocate the shared base schedule, spill until the allocation fits —
// with every stage served through the cache. The Ideal model ignores
// regs (its register file is unlimited).
func (e *Engine) Compile(ctx context.Context, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (*pipeline.ModelResult, error) {
	return e.cache.Evaluate(ctx, g, m, sched.Options{}, model, regs)
}

// CompileAll evaluates every register-file model of one loop with one
// base request and one eval-flight claim over the four (model, regs)
// cells — one walk of the spill chain, the path sweeps take
// (Cache.evalCells). Unlike a sweep it keeps the eval entries.
func (e *Engine) CompileAll(ctx context.Context, g *ddg.Graph, m *machine.Config, regs int) (out [core.NumModels]*pipeline.ModelResult, err error) {
	b, err := e.Base(ctx, g, m)
	if err != nil {
		return out, err
	}
	cells := make([]pipeline.Cell, len(core.Models))
	for i, model := range core.Models {
		cells[i] = pipeline.Cell{Model: model, Regs: regs}
	}
	next := 0
	_, err = e.cache.evalCells(ctx, b, cells, func(res *pipeline.ModelResult, err error) error {
		out[core.Models[next]], next = res, next+1
		return err
	})
	return out, err
}
