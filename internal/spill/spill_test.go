package spill

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

func TestNoSpillWhenItFits(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	res, err := Run(g, m, 64, core.Fit(core.Unified), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues != 0 || res.SpillStores != 0 || res.SpillLoads != 0 {
		t.Fatalf("unexpected spills: %+v", res)
	}
	if res.Sched.II != 1 {
		t.Fatalf("II = %d, want 1", res.Sched.II)
	}
}

func TestIdealNeverSpills(t *testing.T) {
	g := loops.PaperExample()
	res, err := Run(g, machine.Example(), 0, core.Fit(core.Ideal), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues != 0 || res.Graph.NumNodes() != g.NumNodes() {
		t.Fatal("ideal model must not alter the graph")
	}
}

func TestSpillReducesUnifiedRequirement(t *testing.T) {
	// The example loop needs 42 unified registers; with 32 the spiller
	// must insert spill code until it fits.
	g := loops.PaperExample()
	m := machine.Example()
	res, err := Run(g, m, 32, core.Fit(core.Unified), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues == 0 {
		t.Fatal("expected at least one spill")
	}
	if res.MemOps() <= 3 {
		t.Fatalf("MemOps = %d, want > 3 (spill traffic)", res.MemOps())
	}
	lts := lifetime.Compute(res.Sched)
	req, err := regalloc.Registers(lts, res.Sched.II)
	if err != nil {
		t.Fatal(err)
	}
	if req > 32 {
		t.Fatalf("final requirement %d > 32", req)
	}
	if err := res.Sched.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpillVictimIsLongestLifetime(t *testing.T) {
	// In the example loop the longest lifetime is L1 (13 cycles); the
	// first spill must target it: the rebuilt graph carries sp0 nodes
	// and L1's only flow successor is the spill store.
	g := loops.PaperExample()
	m := machine.Example()
	res, err := Run(g, m, 41, core.Fit(core.Unified), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues < 1 {
		t.Fatal("no spill happened")
	}
	st := res.Graph.NodeByName("sp0.st")
	if st == nil {
		t.Fatal("missing spill store sp0.st")
	}
	l1 := res.Graph.NodeByName("L1")
	outs := res.Graph.OutEdges(l1.ID)
	for _, e := range outs {
		if e.Kind == ddg.Flow && e.To != st.ID {
			t.Fatalf("L1 still feeds %s directly", res.Graph.Node(e.To))
		}
	}
	ld := res.Graph.NodeByName("sp0.ld0")
	if ld == nil {
		t.Fatal("missing reload sp0.ld0")
	}
	// The reload must feed both of L1's original consumers.
	consumers := res.Graph.Consumers(ld.ID)
	if len(consumers) != 2 {
		t.Fatalf("reload consumers = %v, want M3 and A6", consumers)
	}
}

func TestSpillGroupsReloadsByDistance(t *testing.T) {
	// A value consumed at distances 0 and 2 needs two reloads.
	g := ddg.New("dist", 1)
	l := g.AddNode(ddg.LOAD, "L")
	a := g.AddNode(ddg.FADD, "A")
	b := g.AddNode(ddg.FMUL, "B")
	st := g.AddNode(ddg.STORE, "S")
	g.Flow(l, a)
	g.FlowD(l, b, 2)
	g.Flow(a, st)
	unspill := map[int]bool{}
	stores, loads := insertSpill(g, l, 0, unspill)
	if stores != 1 || loads != 2 {
		t.Fatalf("stores=%d loads=%d, want 1/2", stores, loads)
	}
	if g.NodeByName("sp0.ld0") == nil || g.NodeByName("sp0.ld2") == nil {
		t.Fatal("missing distance-grouped reloads")
	}
	// Mem edge distances must match consumption distances.
	for _, name := range []string{"sp0.ld0", "sp0.ld2"} {
		n := g.NodeByName(name)
		found := false
		for _, e := range g.InEdges(n.ID) {
			if e.Kind == ddg.Mem {
				found = true
				wantDist := 0
				if strings.HasSuffix(name, "ld2") {
					wantDist = 2
				}
				if e.Distance != wantDist {
					t.Fatalf("%s mem distance = %d, want %d", name, e.Distance, wantDist)
				}
			}
		}
		if !found {
			t.Fatalf("%s has no mem in-edge", name)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIIBumpFallbackOnUnspillableLoop(t *testing.T) {
	// A dead value (no flow consumers) cannot be spilled; with fewer
	// registers than its MaxLive at II=1, only an II increase helps.
	g := ddg.New("dead", 1)
	g.AddNode(ddg.FMUL, "M")
	m := machine.Eval(6)
	res, err := Run(g, m, 3, core.Fit(core.Unified), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IIBumps == 0 {
		t.Fatal("expected an II bump")
	}
	if res.SpilledValues != 0 {
		t.Fatal("dead value must not be spilled")
	}
	if res.Sched.II < 2 {
		t.Fatalf("II = %d, want >= 2", res.Sched.II)
	}
}

func TestSpillRecurrenceValue(t *testing.T) {
	// acc = acc@1 + v: spilling acc routes the recurrence through
	// memory; the schedule must remain valid (RecMII grows).
	g := ddg.New("acc", 1)
	l := g.AddNode(ddg.LOAD, "L")
	a := g.AddNode(ddg.FADD, "A")
	s7 := g.AddNode(ddg.STORE, "S")
	g.Flow(l, a)
	g.FlowD(a, a, 1)
	g.Flow(a, s7)
	unspill := map[int]bool{}
	insertSpill(g, a, 0, unspill)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := machine.Eval(3)
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Recurrence through memory: add(3) -> store(1) -> load(1) -> add,
	// distance 1 => RecMII >= 5.
	if s.II < 5 {
		t.Fatalf("II = %d, want >= 5", s.II)
	}
}

func TestDualModelsSpillLess(t *testing.T) {
	// For the example loop with 32 registers: unified spills, the dual
	// organizations do not (29 and 23 <= 32).
	g := loops.PaperExample()
	m := machine.Example()
	uni, err := Run(g, m, 32, core.Fit(core.Unified), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Run(g, m, 32, core.Fit(core.Partitioned), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	swp, err := Run(g, m, 32, core.Fit(core.Swapped), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uni.SpilledValues == 0 {
		t.Fatal("unified should spill at 32 registers")
	}
	if part.SpilledValues != 0 || swp.SpilledValues != 0 {
		t.Fatalf("dual organizations must not spill at 32: part=%d swap=%d",
			part.SpilledValues, swp.SpilledValues)
	}
	// And with 23 registers only the swapped organization avoids spill.
	part23, err := Run(g, m, 23, core.Fit(core.Partitioned), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	swp23, err := Run(g, m, 23, core.Fit(core.Swapped), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if part23.SpilledValues == 0 {
		t.Fatal("partitioned should spill at 23 registers")
	}
	if swp23.SpilledValues != 0 {
		t.Fatal("swapped must fit in 23 registers without spill")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	g := loops.PaperExample()
	before := g.NumNodes()
	_, err := Run(g, machine.Example(), 16, core.Fit(core.Unified), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != before {
		t.Fatal("Run mutated the input graph")
	}
}

// TestRunSeededMatchesUnseeded feeds the precomputed base schedule into
// the spill loop and checks the outcome is indistinguishable from the
// self-scheduling path, across fitting, spilling and II-bump regimes.
func TestRunSeededMatchesUnseeded(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &Seed{Sched: s, Lifetimes: lifetime.Compute(s)}
	for _, regs := range []int{0, 64, 32, 16, 8} {
		plain, err := Run(g, m, regs, core.Fit(core.Unified), sched.Options{})
		if err != nil {
			t.Fatalf("regs=%d: %v", regs, err)
		}
		seeded, err := RunSeeded(context.Background(), nil, g, m, regs, core.Fit(core.Unified), sched.Options{}, seed)
		if err != nil {
			t.Fatalf("regs=%d seeded: %v", regs, err)
		}
		if plain.Sched.II != seeded.Sched.II ||
			plain.SpilledValues != seeded.SpilledValues ||
			plain.SpillStores != seeded.SpillStores ||
			plain.SpillLoads != seeded.SpillLoads ||
			plain.IIBumps != seeded.IIBumps ||
			plain.Iterations != seeded.Iterations ||
			plain.MemOps() != seeded.MemOps() {
			t.Fatalf("regs=%d: seeded run diverged: plain=%+v seeded=%+v", regs, plain, seeded)
		}
		var a, b bytes.Buffer
		if err := plain.Graph.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := seeded.Graph.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("regs=%d: final graphs differ", regs)
		}
	}
}

// TestRunSeededSkipsSchedulerWhenFitting asserts the point of seeding:
// a loop that fits without spilling must not re-enter the scheduler at
// all, and the returned graph is the caller's own (no clone was taken).
func TestRunSeededSkipsSchedulerWhenFitting(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := &Seed{Sched: s, Lifetimes: lifetime.Compute(s)}
	counter := &countingScheduler{}
	res, err := RunSeeded(context.Background(), counter, g, m, 64, core.Fit(core.Unified), sched.Options{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if counter.calls != 0 {
		t.Fatalf("seeded fitting run made %d scheduler calls, want 0", counter.calls)
	}
	if res.Graph != g {
		t.Fatal("no-spill run should return the input graph, not a clone")
	}
	if res.Sched != s {
		t.Fatal("no-spill run should return the seed schedule")
	}
}

type countingScheduler struct{ calls int }

func (c *countingScheduler) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	c.calls++
	return sched.Run(g, m, opts)
}

// TestRunSeededCancellation checks the context is honoured between spill
// rounds: a pre-cancelled context stops the loop before any work.
func TestRunSeededCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := loops.PaperExample()
	_, err := RunSeeded(ctx, nil, g, machine.Example(), 16, core.Fit(core.Unified), sched.Options{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
