package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	graph [sha256.Size]byte
	opts  sched.Options
}

// CacheStats is a snapshot of one stage's counters across the cache
// tiers.
type CacheStats struct {
	// Hits is the number of requests served from memory: by an earlier
	// cell of the same group at the eval stage; 0 for the schedule and
	// base stages, which keep nothing.
	Hits uint64
	// DiskHits is the number of requests served from the persistent
	// artifact store; always 0 when no store is attached.
	DiskHits uint64
	// Misses is the number of results actually computed.
	Misses uint64
}

// Requests returns the total number of requests observed.
func (s CacheStats) Requests() uint64 { return s.Hits + s.DiskHits + s.Misses }

// Cache is a content-addressed artifact cache for the pipeline stages
// (schedule, base, per-model eval). It is safe for concurrent use.
//
// No stage keeps an in-memory tier. A schedule request is one per base
// or per spill round, which no other request repeats. A base request is
// one per (loop, machine) group that misses the disk, and the callers
// that need one base twice share it themselves (experiment's
// requirement sweeps). An eval request is one cell of a group, and the
// group walk (evalCells) shares the only cells that coincide.
//
// The persistent tier, optional (SetStore), is a content-addressed
// artifact store shared across processes, read-through/write-behind: a
// request consults it and only computes on a disk miss; computed
// schedule and eval artifacts are written back best-effort. Negative
// results are never persisted — an error is cheap to recompute and
// pinning one on disk risks masking an environment-dependent failure.
type Cache struct {
	// store is the optional persistent tier; nil means memory-only.
	// The disk counters record successful disk loads; unsuccessful
	// ones are observable through the store's own Stats (misses/faults).
	store                       *store.Store
	schedDiskHits, evalDiskHits atomic.Uint64
	// schedComputed counts the schedule stage's sched.Run calls,
	// baseComputed the bases built, evalComputed the cells the eval
	// stage walked, and evalShared the cells it served from an earlier
	// cell of the same group.
	schedComputed, baseComputed, evalComputed, evalShared atomic.Uint64

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

// NewCache returns an empty cache with no store.
func NewCache() *Cache { return &Cache{} }

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

// keyOf builds the cache key for one scheduling problem; diskKey adds
// the machine.
func (c *Cache) keyOf(g *ddg.Graph, opts sched.Options) cacheKey {
	return cacheKey{graph: c.digestOf(g), opts: opts}
}

// diskKey derives the on-disk artifact key for one problem: the SHA-256
// over (scheduler algorithm version, graph digest, full machine
// specification, every sched.Options field, and — for the eval stage —
// model and register budget), NUL-separated.
//
// It is deliberately strict on two counts, because disk outlives the
// process. The machine contributes its full rendered specification
// (Config.String: clusters, unit counts, latencies), not just its name
// — a preset whose spec changes without a rename must not serve stale
// artifacts, even though within one process name-equality implies
// spec-equality. And sched.AlgorithmVersion pins the scheduler's
// observable behavior, so a binary with improved heuristics starts from
// a cold key space instead of reproducing the old binary's schedules.
// Hashing %#v of the options keeps future option fields from silently
// aliasing distinct problems.
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

// evalExtra names one cell under its base key on disk: Ideal ignores
// the budget, and all negatives mean unlimited.
func evalExtra(cell pipeline.Cell) string {
	regs := cell.Regs
	if cell.Model == core.Ideal || regs < 0 {
		regs = 0
	}
	return fmt.Sprintf("%s/%d", cell.Model, regs)
}

// loadEval is the read-through path of the eval stage: fetch and decode
// a persisted result for cell of g over the base key, treating any
// damage as a recomputable miss (see Schedule). A result the spill loop
// left untouched embeds g itself, and decodes bound to it. Without a
// store it misses.
func (c *Cache) loadEval(key cacheKey, g *ddg.Graph, m *machine.Config, cell pipeline.Cell) (*pipeline.ModelResult, bool) {
	if c.store == nil {
		return nil, false
	}
	dk := diskKey(key, m, evalExtra(cell))
	data, ok := c.store.Get(stageEval, dk)
	if ok {
		res, err := pipeline.DecodeModelResultBound(data, m, g, key.graph)
		if err == nil && res.Model == cell.Model {
			c.evalDiskHits.Add(1)
			return res, true
		}
		c.store.Discard(stageEval, dk)
	}
	return nil, false
}

// saveEval is the write-behind path of the eval stage: best-effort, a
// failed write only means the next process recomputes.
func (c *Cache) saveEval(key cacheKey, m *machine.Config, cell pipeline.Cell, res *pipeline.ModelResult) {
	if c.store == nil {
		return
	}
	var buf bytes.Buffer
	if err := pipeline.EncodeModelResult(&buf, res); err != nil {
		c.store.Fault()
		return
	}
	_ = c.store.Put(stageEval, diskKey(key, m, evalExtra(cell)), buf.Bytes())
}

// Schedule returns the schedule of g on m. Its Graph is g itself, so a
// caller that rewrites g afterwards must copy what it keeps
// (spill.RunSeries does). Without a store it is sched.Run on g. With a
// store it reads through the disk tier — the artifact's embedded graph
// is checked against g's digest and spill-slot marks and the schedule
// bound to g; an artifact that embeds another graph decodes to a fresh
// one, and a damaged one is discarded and recomputed — and writes a
// computed schedule behind, best-effort. Either way the schedule is
// read-only. Errors are neither retained nor persisted.
func (c *Cache) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	if c.store == nil {
		c.schedComputed.Add(1)
		return sched.Run(g, m, opts)
	}
	key := c.keyOf(g, opts)
	dk := diskKey(key, m, "")
	if data, ok := c.store.Get(stageSched, dk); ok {
		if s, err := pipeline.DecodeScheduleBound(data, m, g, key.graph); err == nil {
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

// Base returns the base-stage artifact of g on m: the modulo schedule
// of the unmodified loop plus its value lifetimes. Nothing is kept: each
// request builds a fresh Base, routing its scheduling request through
// Schedule, so the schedule-stage counters (and the persistent tier)
// observe it. The returned Base, whose schedule may share g, is
// read-only. ctx is checked once, before the build; the build itself is
// ctx-free.
func (c *Cache) Base(ctx context.Context, g *ddg.Graph, m *machine.Config, opts sched.Options) (*pipeline.Base, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.baseComputed.Add(1)
	return pipeline.NewBaseWith(c, g, m, opts)
}

// evalCells serves the cells of one (loop, machine) group — g on m
// under opts — and hands each cell's outcome to each, in order; a
// non-nil error from each stops the group. The group's base is
// requested through the base stage only if some cell misses the disk,
// so a group the store serves whole costs no schedule.
//
// The walk is plain. Every Ideal cell has one result whatever its
// budget, so an Ideal cell after the group's first shares that cell's
// outcome and counts as a memory hit; Grid.Plan already drops every
// other repeated cell. Every other cell reads the disk tier, and the
// cells the disk missed are evaluated by one walk of the spill chain
// (pipeline.EvaluateCells) and written behind to the store. A cancelled
// ctx is the group's error: it is checked here before any cell is
// served, and by the walk between rounds.
func (c *Cache) evalCells(ctx context.Context, g *ddg.Graph, m *machine.Config, opts sched.Options, cells []pipeline.Cell, each func(res *pipeline.ModelResult, err error) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var key cacheKey
	if c.store != nil {
		key = c.keyOf(g, opts)
	}
	res := make([]*pipeline.ModelResult, len(cells))
	errs := make([]error, len(cells))
	ideal := -1 // the group's first Ideal cell
	var walk []pipeline.Cell
	var at []int
	for k, cell := range cells {
		if cell.Model == core.Ideal {
			if ideal >= 0 {
				c.evalShared.Add(1)
				continue
			}
			ideal = k
		}
		if r, ok := c.loadEval(key, g, m, cell); ok {
			res[k] = r
			continue
		}
		walk = append(walk, cell)
		at = append(at, k)
	}
	if len(walk) > 0 {
		c.evalComputed.Add(uint64(len(walk)))
		b, err := c.Base(ctx, g, m, opts)
		if err != nil {
			for _, k := range at {
				errs[k] = err
			}
		} else {
			out, outErrs := pipeline.EvaluateCells(ctx, c, b, walk)
			for i, k := range at {
				res[k], errs[k] = out[i], outErrs[i]
				if errs[k] == nil {
					c.saveEval(key, m, cells[k], res[k])
				}
			}
		}
	}
	for k, cell := range cells {
		if cell.Model == core.Ideal {
			k = ideal
		}
		if err := each(res[k], errs[k]); err != nil {
			return err
		}
	}
	return nil
}

// Forget drops the digest memo for g. The spill loop calls this (via an
// optional interface check in spill.RunSeries) when a private working
// graph dies, so the memo doesn't pin dead graphs for the engine's
// lifetime. Only a store-backed schedule stage digests working graphs.
func (c *Cache) Forget(g *ddg.Graph) { c.digests.Delete(g) }

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
	// Base counts base-stage requests: the schedule + lifetime artifact
	// a group's cells start from. The stage has no tier at all, so every
	// request is computed; persisting the schedule stage already makes a
	// warm-store base computation scheduler-free.
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
		Schedule: c.Stats(),
		Base:     CacheStats{Misses: c.baseComputed.Load()},
		Eval: CacheStats{
			Hits:     c.evalShared.Load(),
			DiskHits: c.evalDiskHits.Load(),
			Misses:   c.evalComputed.Load(),
		},
		Persistent: c.store != nil,
	}
}
