package spill

// Pins the walk (RunSeries) over one model's budgets, budget by budget,
// against the spill loop it replaced: one independent spill chain per
// budget, run with the one-budget fit predicate. Whatever the axis —
// unsorted, with duplicates, with budgets that never converge — every
// budget must get exactly the result, or the error, its own chain
// produces. group_test.go pins the walk over several models' cells.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
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

// oracleRunSeeded is the single-budget spill loop as it stood before
// the series walk, verbatim: the reference every walked budget must
// reproduce.
func oracleRunSeeded(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, regs int, fit FitFunc, opts sched.Options, seed *Seed) (*Result, error) {
	schedule := sched.Run
	if sr != nil {
		schedule = sr.Schedule
	}
	work, cloned := g, false
	res := &Result{}
	unspillable := make(map[int]bool) // node IDs whose values may not be spilled again
	slot := 0

	for iter := 0; iter < maxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("spill: %s: %w", g.LoopName, err)
		}
		res.Iterations = iter + 1
		var s *sched.Schedule
		var lts []lifetime.Lifetime
		if iter == 0 && seed != nil {
			s, lts = seed.Sched, seed.Lifetimes
		} else {
			var err error
			s, err = schedule(work, m, opts)
			if err != nil {
				return nil, fmt.Errorf("spill: %w", err)
			}
			lts = lifetime.Compute(s)
		}
		if regs <= 0 {
			res.Sched, res.Graph, res.Lifetimes = s, work, lts
			return res, nil
		}
		if final, ok := fit(s, lts, regs); ok {
			res.Sched, res.Graph, res.Lifetimes = final, work, lts
			return res, nil
		}
		victim, ok := pickVictim(work, lts, unspillable)
		if !ok {
			// Everything is spilled and it still does not fit: relax
			// the schedule by forcing a larger II.
			res.IIBumps++
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
		res.SpilledValues++
		res.SpillStores += stores
		res.SpillLoads += loads
	}
	return nil, fmt.Errorf("spill: loop %s did not converge in %d rounds (regs=%d)",
		g.LoopName, maxIterations, regs)
}

// roundFits is core.RoundFits in the walk's RoundFit shape: a cell's
// Test is its core.Model.
func roundFits() RoundFit {
	rounds := core.RoundFits()
	return func(s *sched.Schedule, lts []lifetime.Lifetime) func(int, int) (*sched.Schedule, bool) {
		test := rounds(s, lts)
		return func(model, regs int) (*sched.Schedule, bool) { return test(core.Model(model), regs) }
	}
}

// modelCells lists one model's cells over a budget axis.
func modelCells(model core.Model, axis []int) []Cell {
	cells := make([]Cell, len(axis))
	for i, r := range axis {
		cells[i] = Cell{Test: int(model), Regs: r}
	}
	return cells
}

// memoScheduler is a content-addressed schedule cache in the shape of
// the sweep engine's: each distinct (graph encoding, machine, options)
// is scheduled once, on a private clone, so the returned schedule never
// aliases the caller's working graph. It keeps the oracle's
// budget-by-budget chains affordable.
type memoScheduler struct {
	mu   sync.Mutex
	memo map[string]*sched.Schedule
}

func newMemoScheduler() *memoScheduler { return &memoScheduler{memo: map[string]*sched.Schedule{}} }

func (c *memoScheduler) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	key := graphKey(g, m, opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.memo[key]; ok {
		return s, nil
	}
	s, err := sched.Run(g.Clone(), m, opts)
	if err != nil {
		return nil, err
	}
	c.memo[key] = s
	return s, nil
}

// graphKey identifies a scheduling problem exactly — every node and
// edge field, the machine and the options — without fmt's cost.
func graphKey(g *ddg.Graph, m *machine.Config, opts sched.Options) string {
	b := fmt.Appendf(nil, "%s\x00%s\x00%#v", g.LoopName, m.Name(), opts)
	for _, n := range g.Nodes() {
		b = append(append(b, '\n'), n.Name...)
		b = append(append(b, ' '), n.Sym...)
		b = strconv.AppendInt(append(b, ' '), int64(n.Op), 10)
		b = strconv.AppendInt(append(b, ' '), int64(n.SpillSlot), 10)
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		for _, v := range []int{e.From, e.To, int(e.Kind), e.Distance} {
			b = strconv.AppendInt(append(b, ' '), int64(v), 10)
		}
	}
	return string(b)
}

// graphText is the canonical encoding plus every node's spill slot,
// which the encoding leaves implicit.
func graphText(g *ddg.Graph) string {
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		panic(err)
	}
	for _, n := range g.Nodes() {
		fmt.Fprintf(&buf, "slot %d\n", n.SpillSlot)
	}
	return buf.String()
}

// sameResult compares one walked budget with its oracle chain and
// describes the first difference, or returns "".
func sameResult(got *Result, gotErr error, want *Result, wantErr error) string {
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, want %q", gotErr, wantErr)
		}
		if got != nil {
			return "result alongside an error"
		}
		return ""
	}
	switch {
	case got.Sched.II != want.Sched.II:
		return fmt.Sprintf("II %d, want %d", got.Sched.II, want.Sched.II)
	case !slices.Equal(got.Sched.Start, want.Sched.Start):
		return fmt.Sprintf("Start %v, want %v", got.Sched.Start, want.Sched.Start)
	case !slices.Equal(got.Sched.FU, want.Sched.FU):
		return fmt.Sprintf("FU %v, want %v", got.Sched.FU, want.Sched.FU)
	case graphText(got.Graph) != graphText(want.Graph):
		return fmt.Sprintf("graph\n%s\nwant\n%s", graphText(got.Graph), graphText(want.Graph))
	case graphText(got.Sched.Graph) != graphText(got.Graph):
		return "schedule graph differs from result graph"
	case len(got.Sched.Start) != got.Graph.NumNodes():
		return fmt.Sprintf("schedule covers %d nodes of a %d-node graph", len(got.Sched.Start), got.Graph.NumNodes())
	case !slices.Equal(got.Lifetimes, want.Lifetimes):
		return fmt.Sprintf("lifetimes %v, want %v", got.Lifetimes, want.Lifetimes)
	case got.SpilledValues != want.SpilledValues || got.SpillStores != want.SpillStores || got.SpillLoads != want.SpillLoads:
		return fmt.Sprintf("spills %d/%d/%d, want %d/%d/%d", got.SpilledValues, got.SpillStores, got.SpillLoads,
			want.SpilledValues, want.SpillStores, want.SpillLoads)
	case got.IIBumps != want.IIBumps:
		return fmt.Sprintf("IIBumps %d, want %d", got.IIBumps, want.IIBumps)
	case got.Iterations != want.Iterations:
		return fmt.Sprintf("Iterations %d, want %d", got.Iterations, want.Iterations)
	}
	return ""
}

// checkWalk runs the walk over axis and every budget's oracle chain and
// fails on the first budget that differs. It reports how many budgets
// failed to converge and how many needed spill rounds.
func checkWalk(t *testing.T, sr Scheduler, g *ddg.Graph, m *machine.Config, model core.Model, axis []int, seeded bool) (nonConverged, spilled int) {
	t.Helper()
	ctx := context.Background()
	var seed *Seed
	if seeded {
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seed = &Seed{Sched: s, Lifetimes: lifetime.Compute(s)}
	}
	before := graphText(g)
	got, errs := RunSeries(ctx, sr, g, m, modelCells(model, axis), roundFits(), sched.Options{}, seed)
	if len(got) != len(axis) || len(errs) != len(axis) {
		t.Fatalf("%s: %d results, %d errors for a %d-budget axis", g.LoopName, len(got), len(errs), len(axis))
	}
	for i, regs := range axis {
		want, wantErr := oracleRunSeeded(ctx, sr, g, m, regs, core.Fit(model), sched.Options{}, seed)
		if d := sameResult(got[i], errs[i], want, wantErr); d != "" {
			t.Fatalf("%s on %s, %v, budget %d of %v: %s", g.LoopName, m.Name(), model, regs, axis, d)
		}
		switch {
		case wantErr != nil:
			nonConverged++
		case want.Iterations > 1:
			spilled++
		}
	}
	if graphText(g) != before {
		t.Fatalf("%s: the walk mutated its input graph", g.LoopName)
	}
	return nonConverged, spilled
}

// TestRunSeriesMatchesPerBudgetChains is the walk's differential test
// over the kernels and a 200-loop synthetic corpus, on both evaluation
// machines, under every spilling model.
func TestRunSeriesMatchesPerBudgetChains(t *testing.T) {
	kernels := loops.Kernels()
	spec := loopgen.Defaults()
	spec.Loops = 200
	synthetic := loopgen.Generate(spec)
	// Unsorted, with a duplicate. 2 registers leave some kernels
	// unconverged after maxIterations rounds; each such budget costs a
	// full-length oracle chain, so only every fourth kernel gets one.
	kernelAxis := []int{24, 64, 8, 16, 8, 32}
	tightAxis := []int{24, 2, 64, 8, 16, 8, 32}
	synthAxis := []int{48, 16, 32, 16, 64, 20}
	models := []core.Model{core.Unified, core.Partitioned, core.Swapped}
	var mu sync.Mutex
	var nonConverged, spilled int
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for _, model := range models {
			t.Run(fmt.Sprintf("%s/%v", m.Name(), model), func(t *testing.T) {
				t.Parallel()
				sr := newMemoScheduler()
				n, s := 0, 0
				for i, g := range kernels {
					axis := kernelAxis
					if i%4 == 0 {
						axis = tightAxis
					}
					a, b := checkWalk(t, sr, g, m, model, axis, true)
					n, s = n+a, s+b
				}
				for _, g := range synthetic {
					a, b := checkWalk(t, sr, g, m, model, synthAxis, true)
					n, s = n+a, s+b
				}
				mu.Lock()
				nonConverged += n
				spilled += s
				mu.Unlock()
			})
		}
	}
	t.Cleanup(func() {
		if !t.Failed() && (nonConverged == 0 || spilled == 0) {
			t.Errorf("corpus exercised %d non-converging and %d spilling budgets; want both > 0", nonConverged, spilled)
		}
	})
}

// TestRunSeriesUncachedScheduler drives the walk through sched.Run
// itself, which returns schedules over the working graph the walk goes
// on to rewrite: budgets closing mid-walk must keep their own copy, and
// must still equal the oracle after the walk has finished.
func TestRunSeriesUncachedScheduler(t *testing.T) {
	axis := []int{40, 12, 24, 16, 64, 12}
	spilled := 0
	for _, g := range loops.Kernels() {
		for _, model := range []core.Model{core.Unified, core.Swapped} {
			_, s := checkWalk(t, nil, g, machine.Eval(6), model, axis, false)
			spilled += s
		}
	}
	if spilled == 0 {
		t.Fatal("no budget spilled; the test needs mid-walk closings")
	}
}

// cancelAfter cancels its context on the n-th scheduling request.
type cancelAfter struct {
	sr     Scheduler
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.sr.Schedule(g, m, opts)
}

// TestRunSeriesCancelledMidWalk cancels the context in the middle of a
// walk: budgets closed before the cancellation keep their results, and
// every budget still open fails with the context error.
func TestRunSeriesCancelledMidWalk(t *testing.T) {
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("missing kernel")
	}
	m := machine.Eval(6)
	axis := []int{64, 16, 24, 40, 32}
	sr := newMemoScheduler()
	base, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &Seed{Sched: base, Lifetimes: lifetime.Compute(base)}
	fit := core.Fit(core.Unified)
	want := make([]*Result, len(axis))
	lo, hi := maxIterations, 0
	for i, regs := range axis {
		if want[i], err = oracleRunSeeded(context.Background(), sr, g, m, regs, fit, sched.Options{}, seed); err != nil {
			t.Fatal(err)
		}
		lo, hi = min(lo, want[i].Iterations), max(hi, want[i].Iterations)
	}
	if lo >= hi-1 {
		t.Fatalf("budgets close in rounds %d..%d; the test needs a wider spread", lo, hi)
	}
	// Round k schedules with request k-1 (round 1 is the seed). Cancel on
	// that request: the walk finishes round k and stops before the next.
	k := (lo + hi) / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, errs := RunSeries(ctx, &cancelAfter{sr: sr, n: k - 1, cancel: cancel}, g, m, modelCells(core.Unified, axis), roundFits(), sched.Options{}, seed)
	for i := range axis {
		if want[i].Iterations <= k {
			if d := sameResult(got[i], errs[i], want[i], nil); d != "" {
				t.Fatalf("budget %d closed before the cancellation: %s", axis[i], d)
			}
			continue
		}
		if got[i] != nil || !errors.Is(errs[i], context.Canceled) || !strings.Contains(errs[i].Error(), g.LoopName) {
			t.Fatalf("budget %d open at the cancellation: result %v, error %v", axis[i], got[i], errs[i])
		}
	}
}

// TestRunSeriesSwappedPicksSchedulePerBudget pins Swapped's per-budget
// choice of final schedule within one round: budgets the unswapped
// partition fits keep the round's own schedule, smaller budgets only the
// swap-rebalanced schedule fits take the rebalanced one.
func TestRunSeriesSwappedPicksSchedulePerBudget(t *testing.T) {
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for _, g := range loops.Kernels() {
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lts := lifetime.Compute(s)
			plain, err := core.PartitionedRequirement(s, lts)
			if err != nil {
				t.Fatal(err)
			}
			swapped, _, err := core.Requirement(core.Swapped, s, lts)
			if err != nil {
				t.Fatal(err)
			}
			if swapped >= plain {
				continue
			}
			axis := []int{plain + 2, swapped, plain}
			got, errs := RunSeries(context.Background(), nil, g, m, modelCells(core.Swapped, axis), roundFits(), sched.Options{},
				&Seed{Sched: s, Lifetimes: lts})
			for i, regs := range axis {
				want, wantErr := oracleRunSeeded(context.Background(), nil, g, m, regs, core.Fit(core.Swapped), sched.Options{},
					&Seed{Sched: s, Lifetimes: lts})
				if d := sameResult(got[i], errs[i], want, wantErr); d != "" {
					t.Fatalf("%s on %s, budget %d: %s", g.LoopName, m.Name(), regs, d)
				}
				if got[i].Iterations != 1 {
					t.Fatalf("%s on %s, budget %d: closed at round %d, want round 1", g.LoopName, m.Name(), regs, got[i].Iterations)
				}
			}
			if got[0].Sched != s || got[2].Sched != s {
				t.Fatalf("%s on %s: budgets the unswapped partition fits did not keep the round's schedule", g.LoopName, m.Name())
			}
			if slices.Equal(got[1].Sched.FU, s.FU) {
				t.Fatalf("%s on %s: budget %d fits only swapped, yet kept the unswapped units", g.LoopName, m.Name(), swapped)
			}
			return
		}
	}
	t.Fatal("no kernel whose swap pass lowers its requirement; the test needs one")
}
