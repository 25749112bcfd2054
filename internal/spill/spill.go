// Package spill implements the paper's "naive" spiller (section 5.4):
// when a loop's register requirement exceeds the physical file, the value
// with the longest lifetime is spilled — a store after its producer and a
// reload before its consumers — the dependence graph is rebuilt, the loop
// is modulo-scheduled again and allocation is retried, until the loop
// fits. When no spillable value remains, the initiation interval is
// increased by one (the paper's first listed alternative) so the process
// always terminates.
package spill

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// FitFunc decides whether a schedule fits in the given number of
// registers under some register-file model. It may return a rebalanced
// schedule (e.g. after swapping); otherwise it returns its input.
type FitFunc func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool)

// Result describes the outcome of the spill loop for one loop.
type Result struct {
	// Sched is the final, fitting schedule (possibly rebalanced by the
	// fit function).
	Sched *sched.Schedule
	// Graph is the final dependence graph including spill code. When
	// nothing was spilled it is the caller's input graph itself (the
	// spill loop only clones once it has to mutate); otherwise it is
	// the final schedule's graph (see RunSeries). Treat it as read-only.
	Graph *ddg.Graph
	// Lifetimes are the value lifetimes of the final round's schedule.
	// They also hold for a swap-rebalanced Sched: lifetimes depend only
	// on issue cycles, which swapping preserves.
	Lifetimes []lifetime.Lifetime
	// SpilledValues is the number of values spilled.
	SpilledValues int
	// SpillStores and SpillLoads count inserted memory operations.
	SpillStores, SpillLoads int
	// IIBumps counts forced initiation-interval increases.
	IIBumps int
	// Iterations is the number of schedule/allocate rounds executed.
	Iterations int
}

// MemOps returns the final number of memory operations per iteration,
// including spill code.
func (r *Result) MemOps() int { return r.Graph.MemOps() }

// maxIterations bounds the spill loop; it is far beyond anything the
// corpus needs and converts algorithmic surprises into errors.
const maxIterations = 400

// NotConverged is the error of a cell still open after maxIterations
// rounds. Unlike a scheduler error or a cancellation, it is a
// deterministic function of the walk's inputs — the loop, the machine,
// the options, the fit test and the budget — so a cache may persist it
// and rebuild it from Loop and Regs.
type NotConverged struct {
	Loop string
	Regs int
}

func (e *NotConverged) Error() string {
	return fmt.Sprintf("spill: loop %s did not converge in %d rounds (regs=%d)", e.Loop, maxIterations, e.Regs)
}

// Scheduler abstracts sched.Run so the spill loop can be driven through
// the sweep engine (internal/sweep). A returned schedule may share g —
// its Graph may be g itself, as sched.Run's is — so it is only valid
// until the caller next mutates g; the spill walk keeps copies for the
// cells that close on a round it goes on to rewrite.
type Scheduler interface {
	Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error)
}

// Seed carries precomputed base-stage artifacts (see internal/pipeline)
// into the spill loop: the schedule of the unmodified input graph and its
// lifetimes. A seeded run consumes them as its first round instead of
// re-entering the scheduler for work already done.
type Seed struct {
	Sched     *sched.Schedule
	Lifetimes []lifetime.Lifetime
}

// Run executes the spill loop on g. regs <= 0 means an unlimited
// register file: the first schedule is returned untouched.
func Run(g *ddg.Graph, m *machine.Config, regs int, fit FitFunc, opts sched.Options) (*Result, error) {
	//lint:allow ctxflow -- Run is the documented ctx-free wrapper; RunSeeded is the threaded form
	return RunSeeded(context.Background(), nil, g, m, regs, fit, opts, nil)
}

// RunSeeded is the full-control spill loop for one budget: the
// one-cell case of RunSeries. Scheduling requests route through sr
// (nil = sched.Run), and a non-nil seed supplies the first round's
// schedule and lifetimes — the caller guarantees they were computed from
// exactly (g, m, opts). The input graph is never mutated. ctx is checked
// between rounds, so a cancelled context stops a long spill search
// promptly.
func RunSeeded(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, regs int, fit FitFunc, opts sched.Options, seed *Seed) (*Result, error) {
	round := func(s *sched.Schedule, lts []lifetime.Lifetime) func(int, int) (*sched.Schedule, bool) {
		return func(_, regs int) (*sched.Schedule, bool) { return fit(s, lts, regs) }
	}
	res, errs := RunSeries(ctx, sr, g, m, []Cell{{Regs: regs}}, round, opts, seed)
	return res[0], errs[0]
}

// Cell is one cell of a spill walk: the fit test that decides it, by
// the RoundFit's numbering, and its register budget (<= 0 = unlimited).
type Cell struct {
	Test, Regs int
}

// RoundFit prepares the fit tests of one spill round: given the round's
// schedule and lifetimes it returns the test of every (test, budget)
// cell, each with FitFunc's meaning. The budget-independent work is
// meant to be done at most once per round and shared by every cell the
// walk tests against it.
type RoundFit func(s *sched.Schedule, lts []lifetime.Lifetime) func(test, regs int) (*sched.Schedule, bool)

// RunSeries runs the spill loop for every cell with a single walk of the
// spill chain. pickVictim looks at neither the budget nor the fit test,
// so the victims, graph rewrites, re-schedules and II bumps form one
// chain; a cell only decides the round where its loop stops. The walk
// tests every still-open cell against each round's schedule, and a cell
// closes at its first fitting round (round 0 for Regs <= 0) with that
// round's schedule, graph, lifetimes and accumulated counters — exactly
// what RunSeeded with that cell's test and budget alone returns. The
// walk ends when the last cell closes; cells still open after
// maxIterations rounds get a *NotConverged naming their own budget.
//
// Results and errors are indexed like cells, which may come in any
// order and hold duplicates; errs[i] is non-nil exactly when results[i]
// is nil. A scheduler error or a cancelled ctx fails every cell still
// open. The cells that close on one round with one final schedule share
// one read-only *Result.
//
// A closed cell's Graph is the input graph while nothing has been
// spilled, and otherwise the round's schedule graph (s.Graph). When that
// is the working graph itself, as sched.Run's is, and the walk goes on
// to rewrite it, the round's results get one clone.
func RunSeries(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, cells []Cell, fit RoundFit, opts sched.Options, seed *Seed) ([]*Result, []error) {
	schedule := sched.Run
	if sr != nil {
		schedule = sr.Schedule
	}
	work, cloned := g, false
	results := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	open := len(cells) // cells without a result yet
	fail := func(err error) ([]*Result, []error) {
		for i, r := range results {
			if r == nil {
				errs[i] = err
			}
		}
		return results, errs
	}
	var chain Result                  // counters accumulated along the chain
	unspillable := make(map[int]bool) // node IDs whose values may not be spilled again
	slot := 0
	var shared [2]*Result // a round's results: its own schedule's and a rebalanced one's

	for iter := 0; iter < maxIterations && open > 0; iter++ {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("spill: %s: %w", g.LoopName, err))
		}
		chain.Iterations = iter + 1
		var s *sched.Schedule
		var lts []lifetime.Lifetime
		if iter == 0 && seed != nil {
			s, lts = seed.Sched, seed.Lifetimes
		} else {
			var err error
			s, err = schedule(work, m, opts)
			if err != nil {
				return fail(fmt.Errorf("spill: %w", err))
			}
			lts = lifetime.Compute(s)
		}
		kept := g // nothing spilled yet: the input graph, never mutated
		if cloned {
			kept = s.Graph
		}
		var test func(int, int) (*sched.Schedule, bool)
		round := shared[:0]
		closed := 0
		for i, c := range cells {
			if results[i] != nil {
				continue
			}
			final := s
			if c.Regs > 0 {
				if test == nil {
					test = fit(s, lts)
				}
				var ok bool
				if final, ok = test(c.Test, c.Regs); !ok {
					continue
				}
			}
			closed++
			if j := slices.IndexFunc(round, func(r *Result) bool { return r.Sched == final }); j >= 0 {
				results[i] = round[j]
				continue
			}
			res := chain
			res.Sched, res.Graph, res.Lifetimes = final, kept, lts
			results[i] = &res
			round = append(round, &res)
		}
		if open -= closed; open == 0 {
			break
		}
		if closed > 0 && cloned && kept == work {
			// The scheduler handed back the working graph itself, which
			// the walk is about to rewrite: this round's results keep a
			// copy.
			keep := work.Clone()
			for _, r := range round {
				r.Graph = keep
				if r.Sched.Graph == work {
					rebound := *r.Sched
					rebound.Graph = keep
					r.Sched = &rebound
				}
			}
		}
		victim, ok := pickVictim(work, lts, unspillable)
		if !ok {
			// Everything is spilled and it still does not fit: relax
			// the schedule by forcing a larger II.
			chain.IIBumps++
			if opts.MinII <= s.II {
				opts.MinII = s.II + 1
			} else {
				opts.MinII++
			}
			continue
		}
		if !cloned {
			work, cloned = g.Clone(), true
		}
		stores, loads := insertSpill(work, victim, slot, unspillable)
		slot++
		chain.SpilledValues++
		chain.SpillStores += stores
		chain.SpillLoads += loads
	}
	for i, r := range results {
		if r == nil {
			errs[i] = &NotConverged{Loop: g.LoopName, Regs: cells[i].Regs}
		}
	}
	return results, errs
}

// pickVictim selects the spillable value with the longest lifetime, as
// the paper does ("the value with the highest lifetime, which in general
// will free a higher number of registers"). Ties break on the smaller
// node ID for determinism.
func pickVictim(g *ddg.Graph, lts []lifetime.Lifetime, unspillable map[int]bool) (int, bool) {
	best, bestLen := -1, 0
	for _, l := range lts {
		if unspillable[l.Node] {
			continue
		}
		if !hasFlowConsumer(g, l.Node) {
			continue // nothing to reload; spilling gains nothing
		}
		if l.Len() > bestLen {
			best, bestLen = l.Node, l.Len()
		}
	}
	return best, best >= 0
}

func hasFlowConsumer(g *ddg.Graph, node int) bool {
	for _, ei := range g.OutEdgeIndices(node) {
		if g.Edge(ei).Kind == ddg.Flow {
			return true
		}
	}
	return false
}

// insertSpill rewrites the graph in place: it appends a spill store plus
// one reload per distinct consumption distance, and redirects the
// producer's flow out-edges through the reloads. Each consumer edge is
// replaced in place — same position in the edge list — so operand order
// (which matters for subtraction and division semantics in the
// simulator) is preserved. The graph strictly grows (one store, >=1
// load, one flow edge and one mem edge per load); the node and edge
// append order is byte-identical to the full rebuild this replaced
// (pinned by TestInsertSpillMatchesRebuild).
func insertSpill(g *ddg.Graph, producer, slot int, unspillable map[int]bool) (stores, loads int) {
	// Distinct consumption distances of the producer's value.
	distSet := map[int]bool{}
	for _, ei := range g.OutEdgeIndices(producer) {
		if e := g.Edge(ei); e.Kind == ddg.Flow {
			distSet[e.Distance] = true
		}
	}
	dists := make([]int, 0, len(distSet))
	for d := range distSet {
		dists = append(dists, d)
	}
	sort.Ints(dists)

	// Spill store fed by the producer, then one reload per distance.
	st := g.AddNode(ddg.STORE, fmt.Sprintf("sp%d.st", slot))
	g.Node(st).Sym = fmt.Sprintf("spill%d", slot)
	g.Node(st).SpillSlot = slot
	stores = 1
	loadOf := map[int]int{}
	for _, d := range dists {
		ld := g.AddNode(ddg.LOAD, fmt.Sprintf("sp%d.ld%d", slot, d))
		g.Node(ld).Sym = fmt.Sprintf("spill%d", slot)
		g.Node(ld).SpillSlot = slot
		loadOf[d] = ld
		unspillable[ld] = true
		loads++
	}
	g.RewriteEdges(func(edges []ddg.Edge) []ddg.Edge {
		// Substitute consumer edges in place: the consumer now reads the
		// reload's value at distance 0.
		for i, e := range edges {
			if e.Kind == ddg.Flow && e.From == producer {
				edges[i] = ddg.Edge{From: loadOf[e.Distance], To: e.To, Kind: ddg.Flow}
			}
		}
		// New dependences: producer feeds the store; each reload of
		// iteration i reads what the store wrote d iterations earlier.
		edges = append(edges, ddg.Edge{From: producer, To: st, Kind: ddg.Flow})
		for _, d := range dists {
			edges = append(edges, ddg.Edge{From: st, To: loadOf[d], Kind: ddg.Mem, Distance: d})
		}
		return edges
	})
	unspillable[producer] = true
	return stores, loads
}
