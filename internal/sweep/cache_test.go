package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

// TestAppendEncodingMatchesDDGEncode pins the fast cache-key encoder to
// the canonical ddg text encoding, byte for byte, including spill-shaped
// graphs (symbols, anonymous nodes, loop-carried memory edges).
func TestAppendEncodingMatchesDDGEncode(t *testing.T) {
	graphs := loops.Kernels()
	graphs = append(graphs, loops.PaperExample())
	g := ddg.New("synthetic", 7)
	a := g.AddNode(ddg.LOAD, "")
	b := g.AddNode(ddg.FADD, "acc")
	st := g.AddNode(ddg.STORE, "")
	g.Node(st).Sym = "spill0"
	g.Flow(a, b)
	g.FlowD(b, b, 1)
	g.Flow(b, st)
	g.MustAddEdge(ddg.Edge{From: st, To: a, Kind: ddg.Mem, Distance: 2})
	graphs = append(graphs, g)

	for _, g := range graphs {
		var want bytes.Buffer
		if err := g.Encode(&want); err != nil {
			t.Fatal(err)
		}
		got := appendEncoding(nil, g)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: encodings differ\nfast:\n%s\ncanonical:\n%s", g.LoopName, got, want.Bytes())
		}
	}
}

// TestCacheSharesWork drives the cache concurrently (run under -race in
// CI). No stage keeps an in-memory tier, so what the stages share is
// their accounting: every base request builds its own Base, routing its
// scheduling request through the schedule stage, and each counter is
// exact under concurrency. Distinct options stay a distinct problem.
func TestCacheSharesWork(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	corpus := loops.Kernels()
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6)}
	const rounds = 4

	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, m := range machines {
			for _, g := range corpus {
				wg.Add(1)
				go func(g *ddg.Graph, m *machine.Config) {
					defer wg.Done()
					b, err := c.Base(ctx, g, m, sched.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					s, err := c.Schedule(g, m, sched.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					if b.Sched.II < 1 || len(b.Sched.Start) != g.NumNodes() || s.II != b.Sched.II {
						t.Errorf("%s: bad base", g.LoopName)
					}
				}(g, m)
			}
		}
	}
	wg.Wait()

	st := c.StageStats()
	requests := uint64(len(corpus) * len(machines) * rounds)
	if st.Base != (CacheStats{Misses: requests}) {
		t.Fatalf("base stage %+v, want %d requests, all computed", st.Base, requests)
	}
	// One schedule request per base plus every direct one.
	if want := 2 * requests; st.Schedule != (CacheStats{Misses: want}) {
		t.Fatalf("schedule stage %+v, want %d requests, all computed", st.Schedule, want)
	}

	// Different options are a different problem.
	b, err := c.Base(ctx, corpus[0], machines[0], sched.Options{MinII: 9})
	if err != nil {
		t.Fatal(err)
	}
	if b.Sched.II < 9 {
		t.Fatalf("MinII variant scheduled at II %d", b.Sched.II)
	}
	// A cancelled context builds nothing and counts nothing.
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Base(dead, corpus[0], machines[0], sched.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled base request: %v", err)
	}
	if got := c.StageStats().Base.Misses; got != requests+1 {
		t.Fatalf("base stage computed %d, want %d", got, requests+1)
	}
}

// TestEngineWalkMatchesUncachedWalk pins the engine's results to the
// uncached walk pipeline.EvaluateCells with sched.Run. Compile's results
// equal it in schedule, graph, lifetimes and spill counters, and no
// result's graph is rewritten after the walk handed it out (the
// ownership contract of the schedule stage without a clone). Every cell
// of a spill-axis grid walked group by group, as the sweep executor
// does, equals its metrics and error, without a store and over a store,
// cold and warm with every cell read from a group record.
func TestEngineWalkMatchesUncachedWalk(t *testing.T) {
	spec := loopgen.Defaults()
	spec.Loops = 100
	corpus := append(loops.Kernels(), loopgen.Generate(spec)...)
	// experiment.EvalN(4, 6), which this package cannot import.
	four := make([]machine.ClusterSpec, 4)
	for i := range four {
		four[i] = machine.ClusterSpec{Adders: 1, Multipliers: 1, MemPorts: 1}
	}
	grid := Grid{
		Corpus:   corpus,
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6), machine.MustNew("eval4c-L6", four, 6, 6, 1)},
		Models:   core.Models[:],
		Regs:     []int{32, 36, 40, 44, 48, 52, 56, 60, 64},
	}
	// Compile runs on an engine of its own, one model at a time.
	const compileRegs = 32
	ctx := context.Background()

	// The uncached reference: one walk per (loop, machine) over the
	// grid's cells and the four Compile calls.
	units := grid.Plan()
	groups := GroupUnits(units)
	want := make([]*pipeline.ModelResult, len(units))
	wantErrs := make([]error, len(units))
	wantAll := make([][core.NumModels]*pipeline.ModelResult, len(groups))
	eng := New(2)
	err := eng.ForEach(ctx, len(groups), func(gi int) error {
		g := groups[gi]
		b, err := pipeline.NewBase(grid.Corpus[g.Loop], grid.Machines[g.Machine], sched.Options{})
		if err != nil {
			return err
		}
		cells := make([]pipeline.Cell, 0, len(g.Units)+len(core.Models))
		for _, ui := range g.Units {
			cells = append(cells, pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs})
		}
		for _, model := range core.Models {
			cells = append(cells, pipeline.Cell{Model: model, Regs: compileRegs})
		}
		res, errs := pipeline.EvaluateCells(ctx, nil, b, cells)
		for k, ui := range g.Units {
			want[ui], wantErrs[ui] = res[k], errs[k]
		}
		for i, model := range core.Models {
			k := len(g.Units) + i
			if errs[k] != nil {
				return errs[k]
			}
			wantAll[gi][model] = res[k]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// walk serves the cells of every stride-th group through eng, and
	// their Compile calls through compiler when it is non-nil, and
	// checks every result once all walks are done.
	walk := func(leg string, stride int, eng, compiler *Engine) {
		t.Helper()
		got := make([]pipeline.Metrics, len(units))
		gotErrs := make([]error, len(units))
		walked := make([]bool, len(units))
		gotAll := make([][core.NumModels]*pipeline.ModelResult, len(groups))
		err := eng.ForEach(ctx, (len(groups)+stride-1)/stride, func(i int) error {
			gi := i * stride
			g := groups[gi]
			loop, m := grid.Corpus[g.Loop], grid.Machines[g.Machine]
			cells := make([]pipeline.Cell, len(g.Units))
			for k, ui := range g.Units {
				cells[k] = pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs}
			}
			k := 0
			if err := eng.EvalGroup(ctx, loop, m, nil, cells, func(res pipeline.Metrics, err error) error {
				got[g.Units[k]], gotErrs[g.Units[k]], walked[g.Units[k]] = res, err, true
				k++
				return nil
			}); err != nil {
				return err
			}
			if compiler == nil {
				return nil
			}
			all, err := compileAll(compiler, loop, m, compileRegs)
			gotAll[gi] = all
			return err
		})
		if err != nil {
			t.Fatal(err)
		}

		spilled := 0
		for ui, u := range units {
			if !walked[ui] {
				continue
			}
			name := fmt.Sprintf("%s/%s/%v/%d", grid.Corpus[u.Loop].LoopName, grid.Machines[u.Machine].Name(), u.Model, u.Regs)
			if (gotErrs[ui] == nil) != (wantErrs[ui] == nil) || gotErrs[ui] != nil && gotErrs[ui].Error() != wantErrs[ui].Error() {
				t.Fatalf("%s %s: error %v, uncached walk %v", leg, name, gotErrs[ui], wantErrs[ui])
			}
			if want[ui] != nil {
				if m := pipeline.Measure(want[ui]); got[ui] != m {
					t.Fatalf("%s %s: metrics %+v, uncached walk %+v", leg, name, got[ui], m)
				}
				if want[ui].SpilledValues > 0 {
					spilled++
				}
			}
		}
		for gi := 0; compiler != nil && gi < len(groups); gi += stride {
			g := groups[gi]
			for _, model := range core.Models {
				name := fmt.Sprintf("Compile %s/%s/%v", grid.Corpus[g.Loop].LoopName, grid.Machines[g.Machine].Name(), model)
				mustSameResult(t, leg+" "+name, gotAll[gi][model], wantAll[gi][model])
			}
		}
		if spilled == 0 {
			t.Fatalf("%s: no grid cell spilled; the test needs walks that rewrite their graph", leg)
		}
	}

	walk("memory-only", 1, eng, New(1))
	// The store legs walk every eighth group, each machine's among them.
	// Compile never reads the store, so they check the cells alone.
	const stride = 8
	dir := t.TempDir()
	walk("cold store", stride, storeEng(t, 2, dir), nil)
	warm := storeEng(t, 2, dir)
	walk("warm store", stride, warm, nil)
	if st := warm.Cache().StageStats(); st.Eval.Misses != 0 || st.Schedule.Requests() != 0 {
		t.Fatalf("warm store: %+v; want every cell from disk", st)
	}
}

// mustSameResult asserts that got equals the uncached walk's want in
// everything the walk decides, and that got's graphs still match its
// schedule after the walk has ended.
func mustSameResult(t *testing.T, name string, got, want *pipeline.ModelResult) {
	t.Helper()
	if got.Sched.Graph.NumNodes() != len(got.Sched.Start) || got.Graph.NumNodes() != len(got.Sched.Start) {
		t.Fatalf("%s: graphs of %d and %d nodes under a schedule of %d: rewritten after the walk",
			name, got.Sched.Graph.NumNodes(), got.Graph.NumNodes(), len(got.Sched.Start))
	}
	if got.Model != want.Model || got.Sched.II != want.Sched.II ||
		!slices.Equal(got.Sched.Start, want.Sched.Start) || !slices.Equal(got.Sched.FU, want.Sched.FU) {
		t.Fatalf("%s: schedule differs from the uncached walk's", name)
	}
	enc := appendEncoding(nil, want.Graph)
	if !bytes.Equal(appendEncoding(nil, got.Graph), enc) || !bytes.Equal(appendEncoding(nil, got.Sched.Graph), enc) {
		t.Fatalf("%s: graph differs from the uncached walk's", name)
	}
	for id, n := range want.Graph.Nodes() {
		if got.Graph.Node(id).SpillSlot != n.SpillSlot {
			t.Fatalf("%s: node %d spill slot %d, uncached walk %d", name, id, got.Graph.Node(id).SpillSlot, n.SpillSlot)
		}
	}
	if !slices.Equal(got.Lifetimes, want.Lifetimes) {
		t.Fatalf("%s: lifetimes differ from the uncached walk's", name)
	}
	if got.SpilledValues != want.SpilledValues || got.SpillStores != want.SpillStores ||
		got.SpillLoads != want.SpillLoads || got.IIBumps != want.IIBumps || got.Iterations != want.Iterations {
		t.Fatalf("%s: spill counters %+v, uncached walk %+v", name, got, want)
	}
}

// TestEngineCompileAllCancellation checks that a cancelled context
// aborts the staged compile of every model and that the cancellation is
// not retained: a later call with a live context succeeds.
func TestEngineCompileAllCancellation(t *testing.T) {
	eng := New(2)
	g := loops.Kernels()[0]
	m := machine.Eval(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, model := range core.Models {
		if _, err := eng.Compile(ctx, g, m, model, 8); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: %v, want the cancellation", model, err)
		}
	}
	// 8 registers forces spilling, whose rounds check the context.
	if _, err := compileAll(eng, g, m, 8); err != nil {
		t.Fatalf("cancelled evaluation was retained: %v", err)
	}
}

// TestMetricsPathMatchesEvaluateCells is the differential test of the
// group walk's metrics path where it can diverge from the result path:
// every cell's metrics and error from evalCells, which measures each
// distinct spill result once, equal Measure over pipeline.EvaluateCells
// and its errors. The budgets reach down to where cells spill for many
// rounds, where Swapped closes on a rebalanced schedule before
// Partitioned, and (budget 2, on the kernels) where cells do not
// converge. -short walks the kernels alone.
func TestMetricsPathMatchesEvaluateCells(t *testing.T) {
	corpus := loops.Kernels()
	kernels := len(corpus)
	if !testing.Short() {
		spec := loopgen.Defaults()
		spec.Loops = 200
		corpus = append(corpus, loopgen.Generate(spec)...)
	}
	// experiment.EvalN(4, 6), which this package cannot import.
	four := make([]machine.ClusterSpec, 4)
	for i := range four {
		four[i] = machine.ClusterSpec{Adders: 1, Multipliers: 1, MemPorts: 1}
	}
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6), machine.MustNew("eval4c-L6", four, 6, 6, 1)}
	ctx := context.Background()
	eng := New(0)
	var spilled, rebalanced, failed atomic.Int64
	err := eng.ForEach(ctx, len(corpus)*len(machines), func(i int) error {
		loop, m := corpus[i/len(machines)], machines[i%len(machines)]
		var cells []pipeline.Cell
		for _, model := range core.Models {
			if i/len(machines) < kernels {
				cells = append(cells, pipeline.Cell{Model: model, Regs: 2})
			}
			for regs := 4; regs <= 64; regs += 4 {
				cells = append(cells, pipeline.Cell{Model: model, Regs: regs})
			}
		}
		b, err := pipeline.NewBase(loop, m, sched.Options{})
		if err != nil {
			return err
		}
		want, wantErrs := pipeline.EvaluateCells(ctx, nil, b, cells)
		k := 0
		return eng.EvalGroup(ctx, loop, m, nil, cells, func(got pipeline.Metrics, err error) error {
			c, name := cells[k], fmt.Sprintf("%s/%s/%v/%d", loop.LoopName, m.Name(), cells[k].Model, cells[k].Regs)
			switch {
			case (err == nil) != (wantErrs[k] == nil) || err != nil && err.Error() != wantErrs[k].Error():
				return fmt.Errorf("%s: error %v, EvaluateCells %v", name, err, wantErrs[k])
			case err != nil:
				failed.Add(1)
			case got != pipeline.Measure(want[k]):
				return fmt.Errorf("%s: metrics %+v, EvaluateCells %+v", name, got, pipeline.Measure(want[k]))
			case want[k].SpilledValues > 0:
				spilled.Add(1)
			}
			// cells lists each model's budgets in one run, so the
			// Partitioned cell at c's budget is one model's run back.
			if p := k - len(cells)/core.NumModels; c.Model == core.Swapped && want[k] != nil &&
				(want[p] == nil || want[p].Iterations > want[k].Iterations) {
				rebalanced.Add(1)
			}
			k++
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d spilled, %d rebalanced and %d failed cells", spilled.Load(), rebalanced.Load(), failed.Load())
	if spilled.Load() == 0 || rebalanced.Load() == 0 || failed.Load() == 0 {
		t.Fatal("the walks need spilled, swap-rebalanced and failing cells")
	}
}
