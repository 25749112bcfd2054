// Package sweep is the batch evaluation engine behind every experiment
// runner: it executes (corpus × machine × model × register-size) grids on
// a bounded, cancellable worker pool, counts the work of each pipeline
// stage, and reads and writes one content-addressed record per (loop,
// machine) group in an optional artifact store.
//
// # Record key scheme
//
// Everything a group's exhibits read — its requirement row and each
// (model, budget) cell's metrics — is fully determined by three inputs,
// which together form the group's record key (recordKey):
//
//   - the dependence graph, identified by the SHA-256 digest of its
//     canonical text encoding (ddg.(*Graph).Encode — loop header, nodes
//     in ID order, edges in insertion order);
//   - the machine configuration, identified by its full specification
//     (what Config.String renders). Configs are immutable after
//     construction; the grid planner collapses machines onto their
//     Name(), and the presets give every distinct configuration a
//     distinct name, a rule callers constructing machines by hand must
//     follow too;
//   - the sched.Options value, every field of it.
//
// Inside a record, a cell is keyed by its model and canonical budget:
// Ideal's budget and every budget <= 0 are recorded as 0 (unlimited).
// Artifacts are shared between consumers and must be treated as
// read-only; every consumer in this repository already does (core.Swap
// copies before rebalancing).
//
// # Tiers
//
// No stage keeps an in-memory tier, and each counts its requests
// (Cache.StageStats). The schedule stage computes on the caller's graph
// itself, with no clone; the base stage builds a fresh Base per
// request, and a sweep requests one per (loop, machine) group at most;
// the eval stage serves a group's cells in one walk, sharing an Ideal
// cell's result across the group's budgets and measuring each distinct
// spill result once (Cache.evalCells). Callers that need one base or
// one result set twice keep it themselves. The eval stage reads and
// rewrites group records in the optional store (Engine.SetStore),
// making a second process's run incremental. Rows leave in plan order
// through a reorder buffer that no worker waits on (Engine.SweepUnits).
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

// SetStore attaches a persistent artifact store below the eval stage,
// making runs incremental across processes: group records are read
// through and written behind it. Attach before the engine serves its
// first request.
func (e *Engine) SetStore(st *store.Store) { e.cache.store = st }

// Cache returns the engine's stage caches (for stats reporting).
func (e *Engine) Cache() *Cache { return e.cache }

// Schedule modulo-schedules g on m, counted at the schedule stage. It
// implements spill.Scheduler, so the engine can be plugged into the
// spill loop.
func (e *Engine) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	return e.cache.Schedule(g, m, opts)
}

// Forget does nothing. The engine keeps no per-graph state since the
// store holds only group records; Forget stays for callers built
// against the earlier working-graph cleanup hook.
func (e *Engine) Forget(*ddg.Graph) {}

// Base returns the base-stage artifact (schedule + lifetimes) of g on m
// with default options, built through the stage cache (Cache.Base).
func (e *Engine) Base(ctx context.Context, g *ddg.Graph, m *machine.Config) (*pipeline.Base, error) {
	return e.cache.Base(ctx, g, m, sched.Options{})
}

// Requirements returns the unlimited-register requirement row of g on
// m — the base schedule's II and every model's register count — read
// from the group's record when the store holds it, and otherwise
// computed on a fresh base and added to the record. It is one
// eval-stage request.
func (e *Engine) Requirements(ctx context.Context, g *ddg.Graph, m *machine.Config) (pipeline.Requirement, error) {
	return e.cache.requirements(ctx, g, m, sched.Options{})
}

// Compile runs the staged per-model pipeline for one loop — build the
// base, classify and allocate its schedule, spill until the allocation
// fits — and returns the whole result, schedule and graph included. A
// group record holds only metrics, so Compile never reads or writes the
// store; its base and schedules are counted at their stages. The Ideal
// model ignores regs (its register file is unlimited).
func (e *Engine) Compile(ctx context.Context, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (*pipeline.ModelResult, error) {
	b, err := e.Base(ctx, g, m)
	if err != nil {
		return nil, err
	}
	return pipeline.Evaluate(ctx, e, b, model, regs)
}
