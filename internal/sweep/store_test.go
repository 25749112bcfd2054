package sweep

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/store"
)

// storeEng returns an engine with a persistent tier rooted at dir.
func storeEng(t *testing.T, workers int, dir string) *Engine {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(workers)
	eng.SetStore(st)
	return eng
}

// compileAll compiles g under every register-file model on m, one
// Engine.Compile call per model, indexed by model.
func compileAll(eng *Engine, g *ddg.Graph, m *machine.Config, regs int) (out [core.NumModels]*pipeline.ModelResult, err error) {
	for _, model := range core.Models {
		if out[model], err = eng.Compile(context.Background(), g, m, model, regs); err != nil {
			return out, fmt.Errorf("%v: %w", model, err)
		}
	}
	return out, nil
}

// compileCorpusErr runs compileAll for every kernel on m and returns the
// results by loop name; the error form is safe to call off the test
// goroutine (t.Fatal is not).
func compileCorpusErr(eng *Engine, m *machine.Config, regs int) (map[string][core.NumModels]*pipeline.ModelResult, error) {
	out := map[string][core.NumModels]*pipeline.ModelResult{}
	for _, g := range loops.Kernels() {
		res, err := compileAll(eng, g, m, regs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.LoopName, err)
		}
		out[g.LoopName] = res
	}
	return out, nil
}

// compileCorpus is compileCorpusErr with failures reported on t.
func compileCorpus(t *testing.T, eng *Engine, m *machine.Config, regs int) map[string][core.NumModels]*pipeline.ModelResult {
	t.Helper()
	out, err := compileCorpusErr(eng, m, regs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustEqualResults asserts content equivalence of two per-model result
// sets: same schedules, counters and register requirements.
func mustEqualResults(t *testing.T, want, got map[string][core.NumModels]*pipeline.ModelResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result sets differ in size: %d vs %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s missing from second run", name)
		}
		for _, model := range core.Models {
			a, b := w[model], g[model]
			if a.Sched.II != b.Sched.II ||
				a.SpilledValues != b.SpilledValues ||
				a.SpillStores != b.SpillStores ||
				a.SpillLoads != b.SpillLoads ||
				a.IIBumps != b.IIBumps ||
				a.Iterations != b.Iterations ||
				a.MemOps() != b.MemOps() {
				t.Fatalf("%s/%v: results differ: %+v vs %+v", name, model, a, b)
			}
			ra, _, err1 := a.Requirement()
			rb, _, err2 := b.Requirement()
			if err1 != nil || err2 != nil || ra != rb {
				t.Fatalf("%s/%v: requirement %d,%v vs %d,%v", name, model, ra, err1, rb, err2)
			}
		}
	}
}

// TestStoreTierIncremental is the acceptance scenario at engine level: a
// second engine sharing the first one's artifact directory computes zero
// schedules and zero evals while producing equivalent results.
func TestStoreTierIncremental(t *testing.T) {
	dir := t.TempDir()
	m := machine.Eval(6)

	eng1 := storeEng(t, 2, dir)
	first := compileCorpus(t, eng1, m, 24) // 24 regs force spilling on part of the corpus
	st1 := eng1.Cache().StageStats()
	if st1.Schedule.Misses == 0 || st1.Eval.Misses == 0 {
		t.Fatalf("cold run computed nothing: %+v", st1)
	}
	// Each model walks its own spill chain, so a later model may read a
	// round's schedule an earlier model wrote; no eval cell repeats.
	if st1.Eval.DiskHits != 0 {
		t.Fatalf("cold run hit a fresh store: %+v", st1)
	}
	if w := eng1.Store().Stats().Writes; w == 0 {
		t.Fatal("cold run persisted nothing")
	}

	eng2 := storeEng(t, 2, dir)
	second := compileCorpus(t, eng2, m, 24)
	st2 := eng2.Cache().StageStats()
	if st2.Schedule.Misses != 0 {
		t.Fatalf("warm run computed %d schedules, want 0: %+v", st2.Schedule.Misses, st2)
	}
	if st2.Eval.Misses != 0 {
		t.Fatalf("warm run computed %d evals, want 0: %+v", st2.Eval.Misses, st2)
	}
	if st2.Eval.DiskHits == 0 {
		t.Fatalf("warm run served no evals from disk: %+v", st2)
	}
	mustEqualResults(t, first, second)
}

// TestStoreTierCorruptionRecovery damages every persisted artifact and
// checks a fresh engine recomputes everything correctly instead of
// crashing or serving garbage.
func TestStoreTierCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	m := machine.Eval(6)
	want := compileCorpus(t, storeEng(t, 2, dir), m, 24)

	// Corrupt every artifact: flip a payload byte in the first half,
	// truncate the second half.
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if n++; n%2 == 0 {
			return os.WriteFile(path, data[:len(data)/3], 0o644)
		}
		data[len(data)-1] ^= 0x42
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("corruption walk failed: n=%d err=%v", n, err)
	}

	eng := storeEng(t, 2, dir)
	got := compileCorpus(t, eng, m, 24)
	st := eng.Cache().StageStats()
	if st.Eval.DiskHits != 0 || st.Eval.Misses == 0 {
		t.Fatalf("corrupted store still served artifacts: %+v", st)
	}
	if eng.Store().Stats().Faults == 0 {
		t.Fatal("corruption not observed as faults")
	}
	mustEqualResults(t, want, got)

	// The recomputation rewrote the artifacts: the next engine is warm
	// again.
	eng2 := storeEng(t, 2, dir)
	_ = compileCorpus(t, eng2, m, 24)
	if st := eng2.Cache().StageStats(); st.Eval.Misses != 0 {
		t.Fatalf("store not repaired by recomputation: %+v", st)
	}
}

// TestStoreTierConcurrentEngines runs two engines over one shared
// artifact directory at the same time (run under -race in CI), the
// multi-process sharing contract exercised in-process: no torn reads, no
// errors, equivalent results.
func TestStoreTierConcurrentEngines(t *testing.T) {
	dir := t.TempDir()
	m := machine.Eval(3)
	engines := []*Engine{storeEng(t, 2, dir), storeEng(t, 2, dir)}
	var wg sync.WaitGroup
	results := make([]map[string][core.NumModels]*pipeline.ModelResult, len(engines))
	errs := make([]error, len(engines))
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = compileCorpusErr(engines[i], m, 20)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	mustEqualResults(t, results[0], results[1])

	// After both runs, the store serves a third engine completely.
	eng := storeEng(t, 2, dir)
	_ = compileCorpus(t, eng, m, 20)
	if st := eng.Cache().StageStats(); st.Schedule.Misses != 0 || st.Eval.Misses != 0 {
		t.Fatalf("store left cold by concurrent writers: %+v", st)
	}
}

// TestStoreKeyPinsMachineSpec pins the disk key's extra strictness over
// the machine name: two machines sharing a name but not a specification
// must not share persisted artifacts — the warm engine takes clean
// misses (no decode faults from a wrong artifact) and recomputes.
func TestStoreKeyPinsMachineSpec(t *testing.T) {
	dir := t.TempDir()
	g := loops.Kernels()[0]
	spec := []machine.ClusterSpec{{Adders: 1, Multipliers: 1, MemPorts: 1}}
	mA := machine.MustNew("mutating-preset", spec, 3, 3, 1)
	mB := machine.MustNew("mutating-preset", spec, 6, 6, 1) // same name, new latencies

	eng1 := storeEng(t, 1, dir)
	if _, err := compileAll(eng1, g, mA, 32); err != nil {
		t.Fatal(err)
	}
	if eng1.Store().Stats().Writes == 0 {
		t.Fatal("nothing persisted")
	}

	// One model: no stage keeps a base in memory, so a second Compile
	// on eng2 would read the schedule eng2 itself wrote behind.
	eng2 := storeEng(t, 1, dir)
	if _, err := eng2.Compile(context.Background(), g, mB, core.Swapped, 32); err != nil {
		t.Fatal(err)
	}
	st := eng2.Cache().StageStats()
	if st.Schedule.DiskHits != 0 || st.Eval.DiskHits != 0 {
		t.Fatalf("respecced machine served stale artifacts: %+v", st)
	}
	if f := eng2.Store().Stats().Faults; f != 0 {
		t.Fatalf("respecced machine decoded wrong artifacts (%d faults); the key must miss cleanly", f)
	}
	if st.Schedule.Misses == 0 || st.Eval.Misses == 0 {
		t.Fatalf("respecced machine computed nothing: %+v", st)
	}
}

// TestStoreTierDoesNotPersistErrors pins the negative-result policy:
// deterministic failures are never written to disk, so a fresh engine
// recomputes (and re-fails) them.
func TestStoreTierDoesNotPersistErrors(t *testing.T) {
	dir := t.TempDir()
	m := machine.MustNew("no-mem-store", []machine.ClusterSpec{{Adders: 1, Multipliers: 1}}, 3, 3, 1)
	g := loops.Kernels()[0] // every kernel has loads; cannot schedule

	eng1 := storeEng(t, 1, dir)
	if _, err := eng1.Compile(context.Background(), g, m, core.Unified, 16); err == nil {
		t.Fatal("expected scheduling failure")
	}
	if w := eng1.Store().Stats().Writes; w != 0 {
		t.Fatalf("failure persisted: %d writes", w)
	}

	eng2 := storeEng(t, 1, dir)
	if _, err := eng2.Compile(context.Background(), g, m, core.Unified, 16); err == nil {
		t.Fatal("expected scheduling failure on the warm engine")
	}
	if st := eng2.Cache().StageStats(); st.Eval.Misses != 1 || st.Eval.DiskHits != 0 {
		t.Fatalf("failure unexpectedly served from disk: %+v", st)
	}
}

// TestWarmReadBindsInputGraph pins the binding of warm reads: an
// artifact that embeds the requested graph, spill-slot marks included,
// decodes onto the caller's graph, and any other decodes a fresh one.
// A warm cell the spill loop left untouched is bound to the loop, a
// spilled cell is not, and a warm schedule is bound. A schedule
// artifact under the loop's key whose graph section differs from the
// loop's encoding, or whose slot marks differ from the requested
// graph's, decodes to a graph of its own.
func TestWarmReadBindsInputGraph(t *testing.T) {
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("missing kernel")
	}
	m := machine.Eval(6)
	ctx := context.Background()
	dir := t.TempDir()
	compile := func(eng *Engine) (plain, spilled *pipeline.ModelResult) {
		t.Helper()
		var err error
		if plain, err = eng.Compile(ctx, g, m, core.Unified, 0); err != nil {
			t.Fatal(err)
		}
		if spilled, err = eng.Compile(ctx, g, m, core.Unified, 24); err != nil {
			t.Fatal(err)
		}
		if spilled.SpilledValues == 0 {
			t.Fatal("test needs a spilled cell")
		}
		return plain, spilled
	}
	compile(storeEng(t, 1, dir))
	eng := storeEng(t, 1, dir)
	plain, spilled := compile(eng)
	if st := eng.Cache().StageStats().Eval; st.DiskHits != 2 {
		t.Fatalf("warm compiles: eval stage %+v, want both from disk", st)
	}
	if plain.Graph != g || plain.Sched.Graph != g {
		t.Fatal("an unspilled warm cell does not reference the caller's graph")
	}
	if spilled.Graph == g || spilled.Sched.Graph == g || spilled.Graph.NumNodes() <= g.NumNodes() {
		t.Fatal("a spilled warm cell references the caller's graph")
	}

	c := eng.Cache()
	s, err := c.Schedule(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph != g || c.Stats().DiskHits != 1 {
		t.Fatalf("warm schedule bound to the caller's graph: %v; schedule stage %+v", s.Graph == g, c.Stats())
	}

	// The same key with other spill-slot marks: the digest leaves them
	// out, the slots section does not.
	marked := g.Clone()
	marked.Node(0).SpillSlot = 0
	if s, err = c.Schedule(marked, m, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.Graph == marked || s.Graph.Node(0).SpillSlot != -1 || c.Stats().DiskHits != 2 {
		t.Fatalf("artifact with other slot marks bound: %v; schedule stage %+v", s.Graph == marked, c.Stats())
	}

	// The loop's key over an artifact embedding a renamed copy.
	renamed := g.Clone()
	renamed.LoopName += "-renamed"
	s, err = sched.Run(renamed, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pipeline.EncodeSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := c.Store().Put(stageSched, diskKey(c.keyOf(g, sched.Options{}), m, ""), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s, err = c.Schedule(g, m, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if s.Graph == g || s.Graph.LoopName != renamed.LoopName || c.Stats().DiskHits != 3 {
		t.Fatalf("artifact embedding another graph bound: %v; schedule stage %+v", s.Graph == g, c.Stats())
	}
}
