package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/store"
)

// Artifact-store stage names. Only the schedule and eval stages persist:
// a Base is (schedule + lifetimes) where the lifetimes are a cheap
// deterministic function of the schedule, so persisting the schedule
// stage already makes a warm-store base computation scheduler-free.
const (
	stageSched = "sched"
	stageEval  = "eval"
)

// cacheKey identifies one scheduling problem; see the package comment for
// the key scheme.
type cacheKey struct {
	graph   [sha256.Size]byte
	machine string
	opts    sched.Options
}

// evalKey identifies one per-model evaluation problem: the base-stage key
// plus the model and the register budget.
type evalKey struct {
	base  cacheKey
	model core.Model
	regs  int
}

// CacheStats is a snapshot of one stage's counters across the cache
// tiers.
type CacheStats struct {
	// Hits is the number of requests served from the in-memory tier
	// (including calls that waited on an in-flight computation); 0 for
	// the schedule stage, which has none.
	Hits uint64
	// DiskHits is the number of requests served from the persistent
	// artifact store; always 0 when no store is attached.
	DiskHits uint64
	// Misses is the number of results actually computed.
	Misses uint64
}

// Requests returns the total number of requests observed.
func (s CacheStats) Requests() uint64 { return s.Hits + s.DiskHits + s.Misses }

// Cache is a tiered, content-addressed artifact cache for the pipeline
// stages (schedule, base, per-model eval). It is safe for concurrent
// use.
//
// The base and eval stages each sit on an in-memory single-flight tier
// (see flight), differing only in error-retention policy: the base stage
// retains every error (its computation is ctx-free and deterministic —
// retrying an unschedulable problem cannot succeed), while the eval
// stage drops caller-dependent context-cancellation errors so one
// cancelled sweep cannot poison a concurrent or later one. The schedule
// stage has none: its requests are one per base miss and one per spill
// round, which no other request repeats.
//
// The persistent tier, optional (SetStore), is a content-addressed
// artifact store shared across processes, read-through/write-behind: a
// miss consults it and only computes on a disk miss; computed schedule
// and eval artifacts are written back best-effort. Negative results are
// never persisted — an error is cheap to recompute and pinning one on
// disk risks masking an environment-dependent failure.
type Cache struct {
	bases *flight[cacheKey, *pipeline.Base]
	evals *flight[evalKey, *pipeline.ModelResult]

	// store is the optional persistent tier; nil means memory-only.
	// The disk counters record successful disk loads; unsuccessful
	// ones are observable through the store's own Stats (misses/faults).
	store                       *store.Store
	schedDiskHits, evalDiskHits atomic.Uint64
	// schedComputed counts the schedule stage's sched.Run calls.
	schedComputed atomic.Uint64

	// digests memoizes the canonical digest per graph pointer, keyed on
	// the graph's (node count, edge count) for invalidation: every graph
	// mutator in this repository only ever adds nodes and edges (the
	// spiller rewrites its working graph with strictly more of both), so
	// unchanged counts mean unchanged content. A future pass that edits a
	// graph in place without growing it must bypass or clear this memo.
	digests sync.Map // *ddg.Graph -> digestMemo
}

type digestMemo struct {
	nodes, edges int
	sum          [sha256.Size]byte
}

// retainDeterministic is the eval stage's error-retention policy:
// deterministic failures (unschedulable or non-converging problems) are
// cached like results, caller-dependent context errors are not.
func retainDeterministic(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// NewCache returns an empty, memory-only cache.
func NewCache() *Cache {
	return &Cache{
		bases: newFlight[cacheKey, *pipeline.Base](nil),
		evals: newFlight[evalKey, *pipeline.ModelResult](retainDeterministic),
	}
}

// SetStore attaches the persistent artifact tier. It must be called
// before the cache serves its first request; attachment is not
// synchronized with concurrent use.
func (c *Cache) SetStore(st *store.Store) { c.store = st }

// Store returns the attached persistent tier, or nil.
func (c *Cache) Store() *store.Store { return c.store }

// encBufs recycles the encoding buffers keyOf hashes; the cache sits on
// every scheduling request, so the key path must not allocate per call.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// appendEncoding appends g's canonical text encoding — byte-identical to
// ddg.(*Graph).Encode, see TestAppendEncodingMatchesDDGEncode — without
// the fmt machinery that dominates Encode's cost.
func appendEncoding(buf []byte, g *ddg.Graph) []byte {
	buf = append(buf, "loop "...)
	buf = append(buf, g.LoopName...)
	buf = append(buf, " trips "...)
	buf = strconv.AppendInt(buf, g.TripsOrOne(), 10)
	buf = append(buf, '\n')
	for _, n := range g.Nodes() {
		buf = append(buf, "node "...)
		buf = append(buf, n.Label()...)
		buf = append(buf, ' ')
		buf = append(buf, n.Op.String()...)
		if n.Sym != "" {
			buf = append(buf, " sym "...)
			buf = append(buf, n.Sym...)
		}
		buf = append(buf, '\n')
	}
	for i, ne := 0, g.NumEdges(); i < ne; i++ {
		e := g.Edge(i)
		buf = append(buf, "edge "...)
		buf = append(buf, g.Node(e.From).Label()...)
		buf = append(buf, ' ')
		buf = append(buf, g.Node(e.To).Label()...)
		buf = append(buf, ' ')
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Distance), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// digestOf returns the canonical digest of g, memoized per pointer.
func (c *Cache) digestOf(g *ddg.Graph) [sha256.Size]byte {
	nodes, edges := g.NumNodes(), g.NumEdges()
	if v, ok := c.digests.Load(g); ok {
		if m := v.(digestMemo); m.nodes == nodes && m.edges == edges {
			if digestGuard && sha256.Sum256(appendEncoding(nil, g)) != m.sum {
				panic("sweep: graph " + g.LoopName + " mutated in place without growing; stale digest memo (see Cache.digests invariant)")
			}
			return m.sum
		}
	}
	bp := encBufs.Get().(*[]byte)
	buf := appendEncoding((*bp)[:0], g)
	sum := sha256.Sum256(buf)
	*bp = buf
	encBufs.Put(bp)
	c.digests.Store(g, digestMemo{nodes: nodes, edges: edges, sum: sum})
	return sum
}

// keyOf builds the cache key for one scheduling problem.
func (c *Cache) keyOf(g *ddg.Graph, m *machine.Config, opts sched.Options) cacheKey {
	return cacheKey{graph: c.digestOf(g), machine: m.Name(), opts: opts}
}

// diskKey derives the on-disk artifact key for one problem: the SHA-256
// over (scheduler algorithm version, graph digest, full machine
// specification, every sched.Options field, and — for the eval stage —
// model and register budget), NUL-separated.
//
// It is deliberately stricter than the in-memory cacheKey on two
// counts, because disk outlives the process. The machine contributes
// its full rendered specification (Config.String: clusters, unit
// counts, latencies), not just its name — a preset whose spec changes
// without a rename must not serve stale artifacts, even though within
// one process name-equality implies spec-equality. And
// sched.AlgorithmVersion pins the scheduler's observable behavior, so a
// binary with improved heuristics starts from a cold key space instead
// of reproducing the old binary's schedules. Hashing %#v of the options
// keeps future option fields from silently aliasing distinct problems.
func diskKey(k cacheKey, m *machine.Config, extra string) string {
	h := sha256.New()
	fmt.Fprintf(h, "alg%d", sched.AlgorithmVersion)
	h.Write([]byte{0})
	h.Write(k.graph[:])
	h.Write([]byte{0})
	io.WriteString(h, m.String())
	h.Write([]byte{0})
	fmt.Fprintf(h, "%#v", k.opts)
	if extra != "" {
		h.Write([]byte{0})
		io.WriteString(h, extra)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (k evalKey) storeExtra() string {
	return fmt.Sprintf("%s/%d", k.model, k.regs)
}

// loadEval is the read-through path of the eval stage: fetch and decode
// a persisted result, treating any damage as a recomputable miss (see
// Schedule). Without a store it misses.
func (c *Cache) loadEval(key evalKey, m *machine.Config) (*pipeline.ModelResult, bool) {
	if c.store == nil {
		return nil, false
	}
	dk := diskKey(key.base, m, key.storeExtra())
	data, ok := c.store.Get(stageEval, dk)
	if ok {
		res, err := pipeline.DecodeModelResult(bytes.NewReader(data), m)
		if err == nil && res.Model == key.model {
			c.evalDiskHits.Add(1)
			return res, true
		}
		c.store.Discard(stageEval, dk)
	}
	return nil, false
}

// saveEval is the write-behind path of the eval stage: best-effort, a
// failed write only means the next process recomputes.
func (c *Cache) saveEval(key evalKey, res *pipeline.ModelResult) {
	if c.store == nil {
		return
	}
	var buf bytes.Buffer
	if err := pipeline.EncodeModelResult(&buf, res); err != nil {
		c.store.Fault()
		return
	}
	_ = c.store.Put(stageEval, diskKey(key.base, res.Sched.Mach, key.storeExtra()), buf.Bytes())
}

// Schedule returns the schedule of g on m. Without a store it is
// sched.Run on g itself, so the schedule's Graph is g and a caller that
// rewrites g afterwards must copy what it keeps (spill.RunSeries does).
// With a store it reads through the disk tier — a decoded schedule owns
// a fresh graph; a damaged artifact is discarded and recomputed — and
// writes a computed schedule behind, best-effort. Either way the
// schedule is read-only. Errors are neither retained nor persisted (the
// base stage retains them for its requests).
func (c *Cache) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	if c.store == nil {
		c.schedComputed.Add(1)
		return sched.Run(g, m, opts)
	}
	dk := diskKey(c.keyOf(g, m, opts), m, "")
	if data, ok := c.store.Get(stageSched, dk); ok {
		if s, err := pipeline.DecodeSchedule(bytes.NewReader(data), m); err == nil {
			c.schedDiskHits.Add(1)
			return s, nil
		}
		// Verified container, undecodable payload: discard the file so
		// the recompute's write-behind replaces it instead of the same
		// artifact faulting on every future run.
		c.store.Discard(stageSched, dk)
	}
	c.schedComputed.Add(1)
	s, err := sched.Run(g, m, opts)
	if err == nil {
		var buf bytes.Buffer
		if err := pipeline.EncodeSchedule(&buf, s); err != nil {
			c.store.Fault()
		} else {
			_ = c.store.Put(stageSched, dk, buf.Bytes())
		}
	}
	return s, err
}

// Base returns the (possibly shared) base-stage artifact of g on m: the
// modulo schedule of the unmodified loop plus its value lifetimes,
// computed at most once per distinct (graph content, machine, options)
// triple. The underlying scheduling request routes through Schedule, so
// the schedule-stage counters (and the persistent tier) still observe
// it. The returned Base, whose schedule may share g, is immutable and
// shared; treat it as read-only.
// ctx is consulted before starting a computation and while waiting on
// another caller's in-flight one; a computation once started runs to
// completion (it is ctx-free and deterministic, so its result stays
// valid for every future caller).
func (c *Cache) Base(ctx context.Context, g *ddg.Graph, m *machine.Config, opts sched.Options) (*pipeline.Base, error) {
	key := c.keyOf(g, m, opts)
	return c.bases.do(ctx, key, func() (*pipeline.Base, error) {
		return pipeline.NewBaseWith(c, g, m, opts)
	})
}

// Evaluate returns the (possibly shared) per-model stage result — the
// Classified → Allocated → Spilled chain of internal/pipeline — computed
// at most once per distinct (graph content, machine, options, model,
// register budget). All models of one loop share a single base artifact.
// Deterministic failures (unschedulable or non-converging problems) are
// cached like results; context-cancellation errors are caller-dependent
// and are not retained. A waiter that observes another caller's
// cancellation retries while its own context is live, so one cancelled
// sweep cannot poison a concurrent one.
func (c *Cache) Evaluate(ctx context.Context, g *ddg.Graph, m *machine.Config, opts sched.Options, model core.Model, regs int) (*pipeline.ModelResult, error) {
	key := c.evalKeyOf(g, m, opts, model, regs)
	return c.evals.do(ctx, key, func() (*pipeline.ModelResult, error) {
		return c.evalMiss(key, m, func() (*pipeline.ModelResult, error) {
			b, err := c.Base(ctx, g, m, opts)
			if err != nil {
				return nil, err
			}
			return pipeline.Evaluate(ctx, c, b, key.model, key.regs)
		})
	})
}

// evalCells serves cells of one (loop, machine) group over the shared
// base — held by the caller, so the base stage is not requested again —
// through the eval stage, and hands each cell's outcome to each, in
// order; a non-nil error from each stops the group. Every cell is
// requested under its own key, but the group claims all of its keys at
// once (flight.claimAll): it reads the disk tier for the cells it owns,
// walks the spill chain once (pipeline.EvaluateCells) for the owned
// cells the disk missed, and settles them together. Only then does it
// wait on cells another requester owns. So a group costs one claim and
// one walk, and a warm store never walks at all; hit, miss and disk
// counters stay per cell.
//
// It returns the keys of the eval entries this call created — the
// cells whose flight request it served itself, from disk or by
// computing — so a streaming caller can release them once the group is
// served (see evalHolds). Entries another requester created are not
// its to drop.
func (c *Cache) evalCells(ctx context.Context, b *pipeline.Base, cells []pipeline.Cell, each func(res *pipeline.ModelResult, err error) error) ([]evalKey, error) {
	base := c.keyOf(b.Graph, b.Machine, b.Opts)
	keys := make([]evalKey, len(cells))
	for k, cell := range cells {
		keys[k] = evalKeyFor(base, cell.Model, cell.Regs)
	}
	cl, err := c.evals.claimAll(ctx, keys)
	if err != nil {
		return nil, err
	}
	created := make([]evalKey, 0, len(keys))
	c.evals.run(cl, func() {
		walk := make([]pipeline.Cell, 0, len(keys))
		at := make([]int, 0, len(keys))
		for k, owned := range cl.owned {
			if !owned {
				continue
			}
			created = append(created, keys[k])
			if res, ok := c.loadEval(keys[k], b.Machine); ok {
				cl.set(k, res, nil)
				continue
			}
			walk = append(walk, cells[k])
			at = append(at, k)
		}
		if len(walk) == 0 {
			return
		}
		res, errs := pipeline.EvaluateCells(ctx, c, b, walk)
		for i, k := range at {
			cl.set(k, res[i], errs[i])
			if errs[i] == nil {
				c.saveEval(keys[k], res[i])
			}
		}
	})
	for k, s := range cl.slots {
		var res *pipeline.ModelResult
		var err error
		if cl.owned[k] {
			res, err = s.val, s.err
		} else {
			var settled bool
			if res, err, settled = c.evals.wait(ctx, keys[k], s); !settled {
				// The owner was cancelled: compute this cell afresh.
				own := false
				res, err = c.evals.do(ctx, keys[k], func() (*pipeline.ModelResult, error) {
					own = true
					return c.evalMiss(keys[k], b.Machine, func() (*pipeline.ModelResult, error) {
						return pipeline.Evaluate(ctx, c, b, cells[k].Model, cells[k].Regs)
					})
				})
				if own {
					created = append(created, keys[k])
				}
			}
		}
		if err := each(res, err); err != nil {
			return created, err
		}
	}
	return created, nil
}

// evalKeyOf normalizes the budget and builds the eval-stage key.
func (c *Cache) evalKeyOf(g *ddg.Graph, m *machine.Config, opts sched.Options, model core.Model, regs int) evalKey {
	return evalKeyFor(c.keyOf(g, m, opts), model, regs)
}

// evalKeyFor builds the eval-stage key of a model and budget over a
// base key: Ideal ignores the budget, and all negatives mean unlimited.
func evalKeyFor(base cacheKey, model core.Model, regs int) evalKey {
	if model == core.Ideal || regs < 0 {
		regs = 0
	}
	return evalKey{base: base, model: model, regs: regs}
}

// evalMiss serves a flight miss of the eval stage: read through the
// disk tier, else compute with eval and write a computed result behind
// to the store.
func (c *Cache) evalMiss(key evalKey, m *machine.Config, eval func() (*pipeline.ModelResult, error)) (*pipeline.ModelResult, error) {
	if res, ok := c.loadEval(key, m); ok {
		return res, nil
	}
	res, err := eval()
	if err == nil {
		c.saveEval(key, res)
	}
	return res, err
}

// Forget drops the digest memo for g. The spill loop calls this (via an
// optional interface check in spill.RunSeries) when a private working
// graph dies, so the memo doesn't pin dead graphs for the engine's
// lifetime. Only a store-backed schedule stage digests working graphs.
func (c *Cache) Forget(g *ddg.Graph) { c.digests.Delete(g) }

// tierStats composes one stage's flight counters with its disk counter
// into the exported shape: Misses reports what was actually computed, so
// flight misses absorbed by the persistent tier are subtracted out.
// Callers pass the disk counter as the first (hence first-evaluated)
// argument — it trails the flight's miss counter, so that order keeps
// the subtraction non-negative under concurrency.
func tierStats(diskHits, hits, misses uint64) CacheStats {
	return CacheStats{Hits: hits, DiskHits: diskHits, Misses: misses - diskHits}
}

// Stats returns a snapshot of the schedule-stage counters. The stage
// has no memory tier, so every request is a disk hit or computed.
func (c *Cache) Stats() CacheStats {
	return CacheStats{DiskHits: c.schedDiskHits.Load(), Misses: c.schedComputed.Load()}
}

// StageStats is a per-stage snapshot of the cache counters: one
// CacheStats per cached pipeline stage.
type StageStats struct {
	// Schedule counts modulo-scheduling requests (sched.Run-shaped work).
	Schedule CacheStats
	// Base counts base-stage requests: the shared schedule + lifetime
	// artifact every model evaluation starts from. The base stage has no
	// disk tier of its own — persisting the schedule stage already makes
	// a warm-store base computation scheduler-free.
	Base CacheStats
	// Eval counts per-model stage requests (classify/allocate/spill).
	Eval CacheStats
	// Persistent reports whether a disk tier is attached; when true the
	// rendered lines include the per-stage disk hit counts.
	Persistent bool
}

// String renders the per-stage counters, one line per stage. This is the
// single renderer for the counters: the `ncdrf all` trailer prints it
// verbatim, so anything parsing the trailer (e.g. the CI persistence
// smoke job) keys off this format alone.
func (s StageStats) String() string {
	line := func(name string, cs CacheStats) string {
		out := fmt.Sprintf("stage %s: %d requests, %d computed, %d served from memory",
			name, cs.Requests(), cs.Misses, cs.Hits)
		if s.Persistent {
			out += fmt.Sprintf(", %d from disk", cs.DiskHits)
		}
		return out
	}
	return line("schedule", s.Schedule) + "\n" +
		line("base", s.Base) + "\n" +
		line("eval", s.Eval)
}

// StageStats returns a snapshot of every stage's counters.
func (c *Cache) StageStats() StageStats {
	return StageStats{
		Schedule:   c.Stats(),
		Base:       tierStats(0, c.bases.hits.Load(), c.bases.misses.Load()),
		Eval:       tierStats(c.evalDiskHits.Load(), c.evals.hits.Load(), c.evals.misses.Load()),
		Persistent: c.store != nil,
	}
}

// StageLens is the number of retained entries per in-memory stage.
type StageLens struct {
	Base, Eval int
}

// Lens returns the per-stage entry counts.
func (c *Cache) Lens() StageLens {
	return StageLens{Base: c.bases.len(), Eval: c.evals.len()}
}
