package spill

// Pins the group walk — one RunSeries call over the cells of every
// model — against the per-model walk it replaced: one walk per model
// over that model's budgets, with the one-model round fitter. Every cell
// must get exactly the result, or the error, its model's own walk gives
// its budget.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// oracleRoundFit is the per-model walk's fit preparation: one model's
// per-budget test of a round, as core.RoundFit returns it.
type oracleRoundFit func(s *sched.Schedule, lts []lifetime.Lifetime) func(regs int) (*sched.Schedule, bool)

// oracleRunSeries is the per-model walk as it stood before the group
// walk, verbatim: one model's budgets on one chain.
func oracleRunSeries(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, regs []int, fit oracleRoundFit, opts sched.Options, seed *Seed) ([]*Result, []error) {
	schedule := sched.Run
	if sr != nil {
		schedule = sr.Schedule
	}
	work, cloned := g, false
	results := make([]*Result, len(regs))
	errs := make([]error, len(regs))
	open := len(regs) // budgets without a result yet
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
		var test func(int) (*sched.Schedule, bool)
		closed := 0
		for i, r := range regs {
			if results[i] != nil {
				continue
			}
			final := s
			if r > 0 {
				if test == nil {
					test = fit(s, lts)
				}
				var ok bool
				if final, ok = test(r); !ok {
					continue
				}
			}
			res := chain
			res.Sched, res.Graph, res.Lifetimes = final, kept, lts
			results[i] = &res
			closed++
		}
		if open -= closed; open == 0 {
			break
		}
		if closed > 0 && cloned && kept == work {
			// The scheduler handed back the working graph itself, which
			// the walk is about to rewrite: this round's results keep a
			// copy.
			keep := work.Clone()
			for _, r := range results {
				if r == nil || r.Iterations != chain.Iterations {
					continue
				}
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
			errs[i] = fmt.Errorf("spill: loop %s did not converge in %d rounds (regs=%d)",
				g.LoopName, maxIterations, regs[i])
		}
	}
	return results, errs
}

// groupCells lists every model's cells over a budget axis, interleaved:
// budget by budget, each budget's models in an order rotated by its
// position, so neither models nor budgets arrive sorted.
func groupCells(axis []int) []Cell {
	var cells []Cell
	for j, r := range axis {
		for i := range core.Models {
			model := core.Models[(i+j)%len(core.Models)]
			cells = append(cells, Cell{Test: int(model), Regs: r})
		}
	}
	return cells
}

// checkGroup runs the group walk over cells and every model's oracle
// walk over that model's budgets, and fails on the first cell that
// differs. It reports how many cells failed to converge and how many
// needed spill rounds.
func checkGroup(t *testing.T, sr Scheduler, g *ddg.Graph, m *machine.Config, cells []Cell, seeded bool) (nonConverged, spilled int) {
	t.Helper()
	var seed *Seed
	if seeded {
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seed = &Seed{Sched: s, Lifetimes: lifetime.Compute(s)}
	}
	before := graphText(g)
	got, errs := RunSeries(context.Background(), sr, g, m, cells, roundFits(), sched.Options{}, seed)
	if len(got) != len(cells) || len(errs) != len(cells) {
		t.Fatalf("%s: %d results, %d errors for %d cells", g.LoopName, len(got), len(errs), len(cells))
	}
	for _, model := range core.Models {
		var axis, idx []int
		for i, c := range cells {
			if core.Model(c.Test) == model {
				axis, idx = append(axis, c.Regs), append(idx, i)
			}
		}
		if len(axis) == 0 {
			continue
		}
		want, wantErrs := oracleRunSeries(context.Background(), sr, g, m, axis, core.RoundFit(model), sched.Options{}, seed)
		for k, i := range idx {
			if d := sameResult(got[i], errs[i], want[k], wantErrs[k]); d != "" {
				t.Fatalf("%s on %s, %v at %d regs (cell %d): %s", g.LoopName, m.Name(), model, axis[k], i, d)
			}
			switch {
			case wantErrs[k] != nil:
				nonConverged++
			case want[k].Iterations > 1:
				spilled++
			}
		}
	}
	if graphText(g) != before {
		t.Fatalf("%s: the walk mutated its input graph", g.LoopName)
	}
	return nonConverged, spilled
}

// TestRunSeriesGroupMatchesPerModelWalks is the group walk's
// differential test over the kernels and a 200-loop synthetic corpus, on
// both evaluation machines, with all four models in one cell list over
// unsorted budgets with duplicates, unlimited budgets and — on every
// fourth kernel — a budget that never converges.
func TestRunSeriesGroupMatchesPerModelWalks(t *testing.T) {
	kernels := loops.Kernels()
	spec := loopgen.Defaults()
	spec.Loops = 200
	synthetic := loopgen.Generate(spec)
	kernelAxis := groupCells([]int{24, 64, 8, 16, 0, 8, 32})
	tightAxis := groupCells([]int{24, 2, 64, 8, 16, 8, 32})
	synthAxis := groupCells([]int{48, 16, 32, 16, 64, 20})
	var mu sync.Mutex
	var nonConverged, spilled int
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			sr := newMemoScheduler()
			n, s := 0, 0
			for i, g := range kernels {
				cells := kernelAxis
				if i%4 == 0 {
					cells = tightAxis
				}
				a, b := checkGroup(t, sr, g, m, cells, true)
				n, s = n+a, s+b
			}
			for _, g := range synthetic {
				a, b := checkGroup(t, sr, g, m, synthAxis, true)
				n, s = n+a, s+b
			}
			mu.Lock()
			nonConverged += n
			spilled += s
			mu.Unlock()
		})
	}
	t.Cleanup(func() {
		if !t.Failed() && (nonConverged == 0 || spilled == 0) {
			t.Errorf("corpus exercised %d non-converging and %d spilling cells; want both > 0", nonConverged, spilled)
		}
	})
}

// TestRunSeriesGroupUncachedScheduler drives the group walk through
// sched.Run itself, which returns schedules over the working graph the
// walk goes on to rewrite: cells closing mid-walk must keep their own
// copy, and must still equal their model's walk after the group walk
// has finished.
func TestRunSeriesGroupUncachedScheduler(t *testing.T) {
	cells := groupCells([]int{40, 12, 24, 16, 64, 12})
	spilled := 0
	for _, g := range loops.Kernels() {
		_, s := checkGroup(t, nil, g, machine.Eval(6), cells, false)
		spilled += s
	}
	if spilled == 0 {
		t.Fatal("no cell spilled; the test needs mid-walk closings")
	}
}

// TestRunSeriesGroupCancelledMidWalk cancels the context in the middle
// of a group walk: cells closed before the cancellation keep their
// models' results, and every cell still open fails with the context
// error.
func TestRunSeriesGroupCancelledMidWalk(t *testing.T) {
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("missing kernel")
	}
	m := machine.Eval(6)
	cells := groupCells([]int{64, 16, 24, 40, 32})
	sr := newMemoScheduler()
	base, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &Seed{Sched: base, Lifetimes: lifetime.Compute(base)}
	want, wantErrs := RunSeries(context.Background(), sr, g, m, cells, roundFits(), sched.Options{}, seed)
	lo, hi := maxIterations, 0
	for i, w := range want {
		if wantErrs[i] != nil {
			t.Fatal(wantErrs[i])
		}
		lo, hi = min(lo, w.Iterations), max(hi, w.Iterations)
	}
	if lo >= hi-1 {
		t.Fatalf("cells close in rounds %d..%d; the test needs a wider spread", lo, hi)
	}
	// Round k schedules with request k-1 (round 1 is the seed). Cancel on
	// that request: the walk finishes round k and stops before the next.
	k := (lo + hi) / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, errs := RunSeries(ctx, &cancelAfter{sr: sr, n: k - 1, cancel: cancel}, g, m, cells, roundFits(), sched.Options{}, seed)
	closed := 0
	for i, c := range cells {
		if want[i].Iterations <= k {
			closed++
			if d := sameResult(got[i], errs[i], want[i], nil); d != "" {
				t.Fatalf("%v at %d regs closed before the cancellation: %s", core.Model(c.Test), c.Regs, d)
			}
			continue
		}
		if got[i] != nil || !errors.Is(errs[i], context.Canceled) || !strings.Contains(errs[i].Error(), g.LoopName) {
			t.Fatalf("%v at %d regs open at the cancellation: result %v, error %v", core.Model(c.Test), c.Regs, got[i], errs[i])
		}
	}
	if closed == 0 || closed == len(cells) {
		t.Fatalf("%d of %d cells closed before the cancellation; the test needs both kinds", closed, len(cells))
	}
}
