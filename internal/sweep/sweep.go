// Package sweep is the batch evaluation engine behind every experiment
// runner: it executes (corpus × machine × model × register-size) grids on
// a bounded, cancellable worker pool and reads and writes pipeline
// artifacts through content-addressed stage caches.
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
//   - the machine configuration, identified by its full rendered
//     specification (Config.String), which the on-disk key hashes
//     (diskKey). Configs are immutable after construction; the grid
//     planner collapses machines onto their Name(), and the presets give
//     every distinct configuration a distinct name, a rule callers
//     constructing machines by hand must follow too;
//   - the sched.Options value (a small comparable struct), so the
//     spiller's forced-MinII retries do not collide with the defaults.
//
// Artifacts are shared between consumers and must be treated as
// read-only; every consumer in this repository already does (core.Swap
// copies before rebalancing).
//
// Request counters are exported per stage through Cache.StageStats:
// Misses is the number of artifacts actually computed, Hits the number
// of requests served from memory, DiskHits the number served by the
// optional persistent tier.
//
// # Tiers
//
// No stage keeps an in-memory tier. The schedule stage computes on the
// caller's graph itself, with no clone; the base stage builds a fresh
// Base per request, and a sweep requests one per (loop, machine) group
// at most; the eval stage serves a group's cells in one walk, sharing
// an Ideal cell's result across the group's budgets (Cache.evalCells).
// Callers that need one base or one result set twice keep it
// themselves. Below every stage sits an optional content-addressed
// on-disk artifact store (internal/store, attached with
// Engine.SetStore): a request reads through it before computing, and
// computed schedule/eval artifacts are written behind it, making a
// second process's run incremental.
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
// shared across every runner of a process (its counters then describe
// the whole run, and its store serves every runner) and is safe for
// concurrent use.
type Engine struct {
	cache   *Cache
	workers int
}

// New returns an engine with the given worker-pool width; workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{cache: NewCache(), workers: workers}
}

// SetStore attaches a persistent artifact store below the stage caches,
// making runs incremental across processes: schedule and eval artifacts
// are read through and written behind it. Attach before the engine
// serves its first request.
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

// Base returns the base-stage artifact (schedule + lifetimes) of g on m
// with default options, built through the stage cache (Cache.Base).
func (e *Engine) Base(ctx context.Context, g *ddg.Graph, m *machine.Config) (*pipeline.Base, error) {
	return e.cache.Base(ctx, g, m, sched.Options{})
}

// Compile runs the staged per-model pipeline for one loop — classify and
// allocate the base schedule, spill until the allocation fits —
// as the one-cell case of a sweep group's walk: it reads the disk tier
// first and requests the base only on a disk miss. The Ideal model
// ignores regs (its register file is unlimited).
func (e *Engine) Compile(ctx context.Context, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (*pipeline.ModelResult, error) {
	var res *pipeline.ModelResult
	err := e.cache.evalCells(ctx, g, m, sched.Options{}, []pipeline.Cell{{Model: model, Regs: regs}},
		func(r *pipeline.ModelResult, err error) error {
			res = r
			return err
		})
	return res, err
}
