package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
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
// CI) and checks that identical base requests are computed exactly once
// while distinct graphs, machines and options stay separate. The
// schedule stage keeps no in-memory tier: each of its requests, the
// base stage's and direct ones alike, is computed.
func TestCacheSharesWork(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	corpus := loops.Kernels()
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6)}
	const rounds = 8

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
						t.Errorf("%s: bad shared base", g.LoopName)
					}
				}(g, m)
			}
		}
	}
	wg.Wait()

	st := c.StageStats()
	distinct := uint64(len(corpus) * len(machines))
	if st.Base.Misses != distinct {
		t.Fatalf("base misses = %d, want %d (one per distinct problem)", st.Base.Misses, distinct)
	}
	if st.Base.Hits != distinct*(rounds-1) {
		t.Fatalf("base hits = %d, want %d", st.Base.Hits, distinct*(rounds-1))
	}
	if l := c.Lens(); l.Base != int(distinct) {
		t.Fatalf("cache holds %+v entries, want %d bases", l, distinct)
	}
	// One schedule request per computed base plus every direct one.
	if want := distinct + distinct*rounds; st.Schedule.Misses != want || st.Schedule.Requests() != want {
		t.Fatalf("schedule stage %+v, want %d requests, all computed", st.Schedule, want)
	}

	// Different options are a different problem.
	if _, err := c.Base(ctx, corpus[0], machines[0], sched.Options{MinII: 9}); err != nil {
		t.Fatal(err)
	}
	if got := c.StageStats().Base.Misses; got != distinct+1 {
		t.Fatalf("MinII variant not keyed separately: base misses = %d", got)
	}
}

// TestEngineWalkMatchesUncachedWalk pins the ownership contract of the
// schedule stage without a clone: every cell the engine serves — through
// Compile and through a spill-axis grid walked group by group, as the
// sweep executor does — equals the uncached walk pipeline.EvaluateCells
// with sched.Run, in schedule, graph, lifetimes and spill counters, and
// no result's graph is rewritten after the walk handed it out.
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

	compiler := New(1)
	got := make([]*pipeline.ModelResult, len(units))
	gotErrs := make([]error, len(units))
	gotAll := make([][core.NumModels]*pipeline.ModelResult, len(groups))
	err = eng.ForEach(ctx, len(groups), func(gi int) error {
		g := groups[gi]
		loop, m := grid.Corpus[g.Loop], grid.Machines[g.Machine]
		b, err := eng.Base(ctx, loop, m)
		if err != nil {
			return err
		}
		cells := make([]pipeline.Cell, len(g.Units))
		for k, ui := range g.Units {
			cells[k] = pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs}
		}
		k := 0
		if err := eng.cache.evalCells(ctx, loop, m, sched.Options{}, b, cells, func(res *pipeline.ModelResult, err error) error {
			got[g.Units[k]], gotErrs[g.Units[k]] = res, err
			k++
			return nil
		}); err != nil {
			return err
		}
		gotAll[gi], err = compileAll(compiler, loop, m, compileRegs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	spilled := 0
	for ui, u := range units {
		name := fmt.Sprintf("%s/%s/%v/%d", grid.Corpus[u.Loop].LoopName, grid.Machines[u.Machine].Name(), u.Model, u.Regs)
		if (gotErrs[ui] == nil) != (wantErrs[ui] == nil) || gotErrs[ui] != nil && gotErrs[ui].Error() != wantErrs[ui].Error() {
			t.Fatalf("%s: error %v, uncached walk %v", name, gotErrs[ui], wantErrs[ui])
		}
		if want[ui] != nil {
			mustSameResult(t, name, got[ui], want[ui])
			if want[ui].SpilledValues > 0 {
				spilled++
			}
		}
	}
	for gi, g := range groups {
		for _, model := range core.Models {
			name := fmt.Sprintf("Compile %s/%s/%v", grid.Corpus[g.Loop].LoopName, grid.Machines[g.Machine].Name(), model)
			mustSameResult(t, name, gotAll[gi][model], wantAll[gi][model])
		}
	}
	if spilled == 0 {
		t.Fatal("no grid cell spilled; the test needs walks that rewrite their graph")
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

// TestCompileForgetsWorkingGraphs checks that the spill loop's private
// working graphs do not pile up in the digest memo: after a spilling
// compile, only the caller's graph remains memoized. It runs with a
// store attached, since only a store-backed schedule stage digests the
// working graph of every round.
func TestCompileForgetsWorkingGraphs(t *testing.T) {
	eng := storeEng(t, 1, t.TempDir())
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("missing kernel")
	}
	res, err := eng.Compile(context.Background(), g, machine.Eval(6), core.Unified, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues == 0 {
		t.Fatal("test needs a spilling compile to exercise working-graph cleanup")
	}
	if st := eng.Cache().Stats(); st.Misses <= 1 {
		t.Fatalf("the walk scheduled no spill round through the store: %+v", st)
	}
	memoized := 0
	eng.cache.digests.Range(func(any, any) bool { memoized++; return true })
	// The base stage digested the caller's long-lived graph (that memo is
	// useful and stays); the spill loop's private clone must be gone.
	if memoized != 1 {
		t.Fatalf("digest memo retains %d graphs, want 1 (the caller's)", memoized)
	}
}

// TestCacheCachesErrors checks that deterministic scheduling failures
// are cached at the base stage instead of recomputed: the second request
// is a memory hit with the same error, and the scheduler ran once.
func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	// A machine with no memory ports cannot host any kernel with loads.
	m := machine.MustNew("no-mem", []machine.ClusterSpec{{Adders: 1, Multipliers: 1}}, 3, 3, 1)
	g := loops.Kernels()[0]
	_, err1 := c.Base(ctx, g, m, sched.Options{})
	if err1 == nil {
		t.Fatal("expected scheduling failure")
	}
	_, err2 := c.Base(ctx, g, m, sched.Options{})
	st := c.StageStats()
	if err2 != err1 || st.Base.Misses != 1 || st.Base.Hits != 1 {
		t.Fatalf("error result not served from cache: %v vs %v, %+v", err2, err1, st.Base)
	}
	if st.Schedule.Requests() != 1 {
		t.Fatalf("scheduler ran %d times, want 1", st.Schedule.Requests())
	}
}

// TestCacheLensPerStage pins the per-stage entry accounting: the base
// stage is the only in-memory one, so compiling every model of one loop
// keeps one base.
func TestCacheLensPerStage(t *testing.T) {
	eng := New(1)
	if _, err := compileAll(eng, loops.Kernels()[0], machine.Eval(6), 64); err != nil {
		t.Fatal(err)
	}
	if lens := eng.Cache().Lens(); lens.Base != 1 {
		t.Fatalf("base entries = %d, want 1", lens.Base)
	}
}

// TestFlightWaiterRetriesDroppedFailure exercises the generic core
// directly: a waiter that observes a dropped (non-retained) failure
// recomputes with its own live context, while retained failures are
// shared as hits.
func TestFlightWaiterRetriesDroppedFailure(t *testing.T) {
	f := newFlight[string, int](func(err error) bool { return err != context.Canceled })

	// Retained failure: second caller shares the error as a hit.
	wantErr := errors.New("deterministic")
	if _, err := f.do(context.Background(), "det", func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("first call: %v", err)
	}
	calls := 0
	if _, err := f.do(context.Background(), "det", func() (int, error) { calls++; return 1, nil }); err != wantErr {
		t.Fatalf("retained error not shared: %v", err)
	}
	if calls != 0 || f.hits.Load() != 1 || f.misses.Load() != 1 {
		t.Fatalf("retained failure recomputed: calls=%d hits=%d misses=%d", calls, f.hits.Load(), f.misses.Load())
	}

	// Dropped failure: a concurrent waiter retries and succeeds.
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = f.do(context.Background(), "ctx", func() (int, error) {
			close(computing)
			<-release
			return 0, context.Canceled
		})
	}()
	<-computing
	done := make(chan struct{})
	var got int
	var gotErr error
	go func() {
		defer close(done)
		got, gotErr = f.do(context.Background(), "ctx", func() (int, error) { return 42, nil })
	}()
	close(release)
	<-done
	if gotErr != nil || got != 42 {
		t.Fatalf("waiter did not retry after dropped failure: %d, %v", got, gotErr)
	}
	// A waiter whose own context is dead propagates its cancellation
	// instead of recomputing.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.do(cancelled, "fresh", func() (int, error) { return 0, nil }); err != context.Canceled {
		t.Fatalf("dead context not honoured: %v", err)
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
