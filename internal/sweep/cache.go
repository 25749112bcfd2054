package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
	"ncdrf/internal/store"
)

// stageGroup is the store stage of group records (pipeline.Record), the
// only artifacts the engine persists.
const stageGroup = "group"

// CacheStats is a snapshot of one stage's counters.
type CacheStats struct {
	// Hits is the number of eval requests served from memory: the Ideal
	// cells a group shares across its budgets.
	Hits uint64
	// DiskHits is the number of eval requests a group record served.
	DiskHits uint64
	// Misses is the number of results actually computed.
	Misses uint64
}

// Requests returns the total number of requests observed.
func (s CacheStats) Requests() uint64 { return s.Hits + s.DiskHits + s.Misses }

// Cache is the engine's stage accounting plus its optional persistent
// tier. It is safe for concurrent use.
//
// No stage keeps an in-memory tier. A schedule request is one per base
// or per spill round, which no other request repeats. A base request is
// one per (loop, machine) group whose cells or requirement row miss the
// disk. An eval request is one cell of a group, or one group's
// requirement row, and the group walk (evalCells) shares the only cells
// that coincide.
//
// The persistent tier, optional, is a content-addressed store shared
// across processes, read-through/write-behind at the granularity of a
// group: a group's cells and requirement row read its record, only the
// missing ones are computed, and the record is rewritten once with the
// union, best-effort. Of the failures only non-convergence is persisted
// (spill.NotConverged, a deterministic function of the key); a
// scheduler error or a cancellation is recomputed by the next process.
type Cache struct {
	// store is the optional persistent tier; nil means memory-only.
	// Unsuccessful reads show in the store's own Stats.
	store        *store.Store
	evalDiskHits atomic.Uint64
	// schedComputed counts the schedule stage's sched.Run calls,
	// baseComputed the bases built, evalComputed the cells and rows the
	// eval stage computed, and evalShared the cells it served from an
	// earlier cell of the same group.
	schedComputed, baseComputed, evalComputed, evalShared atomic.Uint64
}

// NewCache returns an empty cache with no store.
func NewCache() *Cache { return &Cache{} }

// encBufs recycles the buffers recordKey encodes into; the key path
// must not allocate per call beyond its result.
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

// recordKey derives the store key of the group of g on m under opts:
// the SHA-256 over the scheduler's algorithm version, the digest of g's
// canonical text encoding, m's full specification and every
// sched.Options field, NUL-separated, in hex.
//
// It is deliberately strict on two counts, because disk outlives the
// process. The machine contributes its full specification (name, each
// cluster's unit count per kind, each kind's latency: what
// Config.String renders, without its fmt cost), not just its name — a
// preset whose spec changes without a rename must not serve stale
// records, even though within one process name-equality implies
// spec-equality. And sched.AlgorithmVersion pins the scheduler's
// observable behavior, so a binary with improved heuristics starts from
// a cold key space instead of reproducing the old binary's results.
// TestRecordKeyCoversOptions fails when sched.Options gains a field
// this key does not write.
func recordKey(g *ddg.Graph, m *machine.Config, opts sched.Options) string {
	bp := encBufs.Get().(*[]byte)
	digest := sha256.Sum256(appendEncoding((*bp)[:0], g))
	buf := append((*bp)[:0], "alg"...)
	buf = strconv.AppendInt(buf, sched.AlgorithmVersion, 10)
	buf = append(append(buf, 0), digest[:]...)
	buf = append(append(buf, 0), m.Name()...)
	num := func(v int) { buf = strconv.AppendInt(append(buf, 0), int64(v), 10) }
	num(m.NumClusters())
	for ci := range m.NumClusters() {
		for _, k := range machine.Kinds {
			num(m.ClusterCountOfKind(ci, k))
		}
	}
	for _, k := range machine.Kinds {
		num(m.Latency(k))
	}
	num(opts.BudgetRatio)
	num(opts.MaxIISlack)
	num(opts.MinII)
	sum := sha256.Sum256(buf)
	*bp = buf
	encBufs.Put(bp)
	return hex.EncodeToString(sum[:])
}

// record reads the record of the group of g on m under opts and
// returns its key with it. A missing or damaged record reads as empty;
// one that passes the store's checks but does not decode is discarded,
// so the rewrite replaces it. Without a store it is empty, with no key.
func (c *Cache) record(g *ddg.Graph, m *machine.Config, opts sched.Options) (string, pipeline.Record) {
	if c.store == nil {
		return "", pipeline.Record{}
	}
	key := recordKey(g, m, opts)
	data, ok := c.store.Get(stageGroup, key)
	if !ok {
		return key, pipeline.Record{}
	}
	rec, err := pipeline.DecodeRecord(data)
	if err != nil {
		c.store.Discard(stageGroup, key)
	}
	return key, rec
}

// saveRecord writes rec under key when a store is attached,
// best-effort: a failed write only means the next process recomputes.
func (c *Cache) saveRecord(key string, rec *pipeline.Record) {
	if c.store != nil {
		_ = c.store.Put(stageGroup, key, pipeline.AppendRecord(nil, rec))
	}
}

// Schedule returns the schedule of g on m: sched.Run on g, counted as
// one schedule-stage computation. Its Graph is g itself, so a caller
// that rewrites g afterwards must copy what it keeps (spill.RunSeries
// does). Nothing is kept or persisted.
func (c *Cache) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	c.schedComputed.Add(1)
	return sched.Run(g, m, opts)
}

// Base returns the base-stage artifact of g on m: the modulo schedule
// of the unmodified loop plus its value lifetimes. Nothing is kept: each
// request builds a fresh Base, routing its scheduling request through
// Schedule, so the schedule-stage counter observes it. The returned Base, whose schedule may share g, is
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
// under opts — and hands each cell's metrics or error to each, in
// order; a non-nil error from each stops the group. The group's base is
// built only if some cell misses the group's record, so a group the
// store serves whole costs no schedule.
//
// The walk is plain. Every Ideal cell has one result whatever its
// budget, so an Ideal cell after the group's first shares that cell's
// outcome and counts as a memory hit; Grid.Plan already drops every
// other repeated cell. Every other cell is looked up in the record, and
// the cells it lacks are measured by one walk of the spill chain
// (pipeline.MeasureCells); the record is then rewritten once, with
// every converged and non-converged cell added. A cancelled ctx is the
// group's error: it is checked here before any cell is served, and by
// the walk between rounds.
func (c *Cache) evalCells(ctx context.Context, g *ddg.Graph, m *machine.Config, opts sched.Options, cells []pipeline.Cell, each func(pipeline.Metrics, error) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	key, rec := c.record(g, m, opts)
	out := make([]pipeline.Metrics, len(cells))
	errs := make([]error, len(cells))
	ideal := -1 // the group's first Ideal cell
	walk := make([]pipeline.Cell, 0, len(cells))
	at := make([]int, 0, len(cells))
	for k, cell := range cells {
		if cell.Model == core.Ideal {
			if ideal >= 0 {
				c.evalShared.Add(1)
				continue
			}
			ideal = k
		}
		if e, ok := rec.Lookup(cell); ok {
			c.evalDiskHits.Add(1)
			out[k] = e.Metrics
			if e.NotConverged {
				errs[k] = &spill.NotConverged{Loop: g.LoopName, Regs: cell.Regs}
			}
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
			res, resErrs := pipeline.MeasureCells(ctx, c, b, walk)
			var nc *spill.NotConverged // one per group: errors.As moves it to the heap
			for i, k := range at {
				out[k], errs[k] = res[i], resErrs[i]
				if c.store != nil && (errs[k] == nil || errors.As(errs[k], &nc)) {
					rec.Put(walk[i], errs[k] != nil, out[k])
				}
			}
			c.saveRecord(key, &rec)
		}
	}
	for k, cell := range cells {
		if cell.Model == core.Ideal {
			k = ideal
		}
		if err := each(out[k], errs[k]); err != nil {
			return err
		}
	}
	return nil
}

// requirements returns the requirement row of g on m under opts, read
// from the group's record when it holds one; otherwise it builds the
// base, measures every model on it and rewrites the record with the
// row added. The row is one eval-stage request. A failure is returned,
// never persisted.
func (c *Cache) requirements(ctx context.Context, g *ddg.Graph, m *machine.Config, opts sched.Options) (pipeline.Requirement, error) {
	key, rec := c.record(g, m, opts)
	if rec.Req.II > 0 {
		c.evalDiskHits.Add(1)
		return rec.Req, nil
	}
	c.evalComputed.Add(1)
	b, err := c.Base(ctx, g, m, opts)
	if err != nil {
		return pipeline.Requirement{}, err
	}
	regs, err := b.Requirements()
	if err != nil {
		return pipeline.Requirement{}, err
	}
	rec.Req = pipeline.Requirement{II: b.Sched.II, Regs: regs}
	c.saveRecord(key, &rec)
	return rec.Req, nil
}

// Stats returns a snapshot of the schedule-stage counters. The stage
// keeps nothing, so every request is computed.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Misses: c.schedComputed.Load()}
}

// StageStats is a per-stage snapshot of the cache counters: one
// CacheStats per pipeline stage.
type StageStats struct {
	// Schedule counts modulo-scheduling requests (sched.Run-shaped work);
	// every one is computed.
	Schedule CacheStats
	// Base counts base-stage requests: the schedule + lifetime artifact
	// a group's cells or requirement row start from; every one is
	// computed.
	Base CacheStats
	// Eval counts per-model cells (classify/allocate/spill) and
	// requirement rows.
	Eval CacheStats
	// Persistent reports whether a disk tier is attached; when true the
	// eval line includes its disk hit count.
	Persistent bool
}

// String renders the per-stage counters, one line per stage. This is the
// single renderer for the counters: the `ncdrf all` trailer prints it
// verbatim, so anything parsing the trailer (e.g. the CI persistence
// smoke job) keys off this format alone. The schedule and base lines
// carry only what their stages can move: requests and computations.
func (s StageStats) String() string {
	line := func(name string, cs CacheStats) string {
		return "stage " + name + ": " + strconv.FormatUint(cs.Requests(), 10) + " requests, " +
			strconv.FormatUint(cs.Misses, 10) + " computed"
	}
	eval := line("eval", s.Eval) + ", " + strconv.FormatUint(s.Eval.Hits, 10) + " served from memory"
	if s.Persistent {
		eval += ", " + strconv.FormatUint(s.Eval.DiskHits, 10) + " from disk"
	}
	return line("schedule", s.Schedule) + "\n" + line("base", s.Base) + "\n" + eval
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
