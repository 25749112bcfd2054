package sweep

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
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

// storeGrid is the kernels on both evaluation machines under every
// model, at budgets that spill part of the corpus.
func storeGrid() Grid {
	return Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{20, 24, 64},
	}
}

// sweepRows runs grid on eng and returns its rows and stage counters.
func sweepRows(t *testing.T, eng *Engine, grid Grid) ([]Result, StageStats) {
	t.Helper()
	rows, err := eng.Rows(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	return rows, eng.Cache().StageStats()
}

// requirementRows returns every loop's requirement row on m, each from
// a row-only walk of its group.
func requirementRows(t *testing.T, eng *Engine, corpus []*ddg.Graph, m *machine.Config) []pipeline.Requirement {
	t.Helper()
	out := make([]pipeline.Requirement, len(corpus))
	for i, g := range corpus {
		if err := eng.EvalGroup(context.Background(), g, m, &out[i], nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// groupOutcome is what one walk of a group returns: its requirement
// row, when asked for, and each cell's metrics and error text.
type groupOutcome struct {
	row     pipeline.Requirement
	metrics []pipeline.Metrics
	errs    []string
}

// gridCells returns the cells of one group of grid, in plan order.
func gridCells(grid Grid) []pipeline.Cell {
	var cells []pipeline.Cell
	for _, model := range grid.Models {
		for _, regs := range grid.Regs {
			cells = append(cells, pipeline.Cell{Model: model, Regs: regs})
		}
	}
	return cells
}

// walkGroups serves every (loop, machine) group of grid in one walk
// (Engine.EvalGroup) on the engine's pool, its requirement row when
// withRow and the cells when withCells, and returns the outcomes,
// machine-major.
func walkGroups(t *testing.T, eng *Engine, grid Grid, withRow, withCells bool) []groupOutcome {
	t.Helper()
	var cells []pipeline.Cell
	if withCells {
		cells = gridCells(grid)
	}
	n := len(grid.Corpus)
	out := make([]groupOutcome, len(grid.Machines)*n)
	err := eng.ForEach(context.Background(), len(out), func(i int) error {
		o := &out[i]
		var row *pipeline.Requirement
		if withRow {
			row = &o.row
		}
		return eng.EvalGroup(context.Background(), grid.Corpus[i%n], grid.Machines[i/n], row, cells, func(m pipeline.Metrics, err error) error {
			o.metrics = append(o.metrics, m)
			o.errs = append(o.errs, fmt.Sprint(err))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGroupRecordColdAndWarm is the acceptance scenario at engine
// level. Walks that serve each group's requirement row and cells
// together write one record per group; a second engine sharing the
// artifact directory reads each record once, computes no cell and no
// row, builds no base, schedules nothing, writes nothing, and returns
// the store-less outcomes.
func TestGroupRecordColdAndWarm(t *testing.T) {
	grid := storeGrid()
	want := walkGroups(t, New(2), grid, true, true)
	groups := uint64(len(want))

	dir := t.TempDir()
	cold := storeEng(t, 2, dir)
	got := walkGroups(t, cold, grid, true, true)
	if st := cold.Cache().StageStats(); st.Eval.Misses == 0 || st.Eval.DiskHits != 0 || st.Base.Requests() != groups {
		t.Fatalf("cold run: %+v; want one base per group", st)
	}
	if w := cold.cache.store.Stats().Writes; w != groups {
		t.Fatalf("cold run wrote %d records, want one per group (%d)", w, groups)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold store-backed outcomes differ from the store-less ones")
	}

	warm := storeEng(t, 2, dir)
	got = walkGroups(t, warm, grid, true, true)
	st := warm.Cache().StageStats()
	if st.Eval.Misses != 0 || st.Base.Requests() != 0 || st.Schedule.Requests() != 0 {
		t.Fatalf("warm run: %+v; want every cell and row from disk, no base, no schedule", st)
	}
	if cells := uint64(len(grid.Plan())); st.Eval.Requests() != cells+groups {
		t.Fatalf("warm run: %d eval requests, want %d cells plus %d requirement rows", st.Eval.Requests(), cells, groups)
	}
	if s := warm.cache.store.Stats(); s.Hits != groups || s.Writes != 0 {
		t.Fatalf("warm run: store %+v; want one read per group, no write", s)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm outcomes differ from the store-less ones")
	}
	rows, _ := sweepRows(t, warm, grid)
	if wantRows, _ := sweepRows(t, New(2), grid); !slices.Equal(rows, wantRows) {
		t.Fatal("a sweep over the records differs from the store-less sweep")
	}
}

// TestGroupRecordSubsetOfCells: a rerun that adds budgets to a grid
// finds records holding part of each group's cells. It computes only
// the missing cells, with one base per group, and rewrites each record
// with the union, so the next run computes nothing.
func TestGroupRecordSubsetOfCells(t *testing.T) {
	small := storeGrid()
	small.Corpus = small.Corpus[:12]
	small.Regs = []int{24}
	wide := small
	wide.Regs = []int{16, 24, 32}
	want, _ := sweepRows(t, New(2), wide)

	dir := t.TempDir()
	sweepRows(t, storeEng(t, 2, dir), small)
	rows, st := sweepRows(t, storeEng(t, 2, dir), wide)
	groups := uint64(len(GroupUnits(wide.Plan())))
	// Per group: the Ideal cell and the 24-register cells are recorded,
	// the 16- and 32-register cells of the three other models are not.
	if fresh := groups * 2 * 3; st.Eval.Misses != fresh || st.Base.Requests() != groups {
		t.Fatalf("widened rerun: %+v; want %d cells computed over %d bases", st, fresh, groups)
	}
	if !slices.Equal(rows, want) {
		t.Fatal("widened rerun differs from the store-less rows")
	}
	rows, st = sweepRows(t, storeEng(t, 2, dir), wide)
	if st.Eval.Misses != 0 || st.Base.Requests() != 0 {
		t.Fatalf("rerun after the union was written: %+v", st)
	}
	if !slices.Equal(rows, want) {
		t.Fatal("rows read from the union differ from the store-less rows")
	}
}

// TestGroupRecordDamagedIsRecomputed: a record whose container verifies
// but whose payload does not decode is discarded as a fault, its group
// is recomputed, and the rewrite repairs it.
func TestGroupRecordDamagedIsRecomputed(t *testing.T) {
	grid := storeGrid()
	grid.Corpus = grid.Corpus[:4]
	want, _ := sweepRows(t, New(2), grid)
	dir := t.TempDir()
	eng := storeEng(t, 2, dir)
	sweepRows(t, eng, grid)
	g, m := grid.Corpus[0], grid.Machines[0]
	if err := eng.cache.store.Put(stageGroup, recordKey(g, m, sched.Options{}), []byte("not a record")); err != nil {
		t.Fatal(err)
	}

	eng = storeEng(t, 2, dir)
	rows, st := sweepRows(t, eng, grid)
	// One Ideal cell serves every budget.
	if cells := uint64(1 + (len(grid.Models)-1)*len(grid.Regs)); st.Eval.Misses != cells || st.Base.Requests() != 1 {
		t.Fatalf("rerun over a damaged record: %+v; want its group's %d cells computed over one base", st, cells)
	}
	if f := eng.cache.store.Stats().Faults; f != 1 {
		t.Fatalf("damaged record counted as %d faults, want 1", f)
	}
	if !slices.Equal(rows, want) {
		t.Fatal("rows differ from the store-less rows")
	}
	if _, st := sweepRows(t, storeEng(t, 2, dir), grid); st.Eval.Misses != 0 {
		t.Fatalf("damaged record not repaired: %+v", st)
	}
}

// TestStoreTierIncremental: records written by requirement sweeps gain
// the cells of a later sweep over the same groups without losing their
// rows, so a third engine serves both from disk with no base.
func TestStoreTierIncremental(t *testing.T) {
	grid := storeGrid()
	grid.Corpus = grid.Corpus[:10]
	dir := t.TempDir()
	eng := storeEng(t, 2, dir)
	var want [][]pipeline.Requirement
	for _, m := range grid.Machines {
		want = append(want, requirementRows(t, eng, grid.Corpus, m))
	}
	wantRows, _ := sweepRows(t, storeEng(t, 2, dir), grid)

	eng = storeEng(t, 2, dir)
	rows, _ := sweepRows(t, eng, grid)
	for i, m := range grid.Machines {
		if !slices.Equal(requirementRows(t, eng, grid.Corpus, m), want[i]) {
			t.Fatalf("%s: requirement rows read back differ", m.Name())
		}
	}
	if st := eng.Cache().StageStats(); st.Eval.Misses != 0 || st.Base.Requests() != 0 {
		t.Fatalf("third engine: %+v; want rows and cells from disk, no base", st)
	}
	if !slices.Equal(rows, wantRows) {
		t.Fatal("cells read back differ")
	}
}

// TestGroupRecordKeepsNonConvergence pins the persisted non-convergence
// outcome:
// a cell whose spill walk runs out of rounds is recorded, so a warm
// rerun reports the same error without walking its 400 rounds again —
// it requests no schedule and builds no base.
func TestGroupRecordKeepsNonConvergence(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 2
	grid := Grid{
		Corpus:   loopgen.Generate(p)[1:], // syn0001 needs 22 registers under Unified
		Machines: []*machine.Config{machine.Eval(3)},
		Models:   []core.Model{core.Ideal, core.Unified},
		Regs:     []int{16, 64},
	}
	dir := t.TempDir()
	cold, st := sweepRows(t, storeEng(t, 1, dir), grid)
	failed := 0
	for _, r := range cold {
		if strings.Contains(r.Error, "did not converge") {
			failed++
		}
	}
	if failed == 0 || st.Schedule.Requests() < 400 {
		t.Fatalf("cold run: %d non-converged cells, %+v; the test needs one", failed, st)
	}
	warm, st := sweepRows(t, storeEng(t, 1, dir), grid)
	if st.Eval.Misses != 0 || st.Schedule.Requests() != 0 || st.Base.Requests() != 0 {
		t.Fatalf("warm run: %+v; want the non-convergence read from the record", st)
	}
	if !slices.Equal(cold, warm) {
		t.Fatal("warm rows differ from the cold run's")
	}
}

// TestStoreTierCorruptionRecovery damages every persisted record and
// checks a fresh engine recomputes everything correctly instead of
// crashing or serving garbage, and that the damage faults only once.
func TestStoreTierCorruptionRecovery(t *testing.T) {
	grid := storeGrid()
	dir := t.TempDir()
	want, _ := sweepRows(t, storeEng(t, 2, dir), grid)

	// Corrupt every record: flip every 16th byte of the segment, which
	// reaches every frame (each is far longer).
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		for i := 0; i < len(data); i += 16 {
			data[i] ^= 0x42
		}
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil || n != 1 {
		t.Fatalf("corruption walk failed: %d segments, err=%v", n, err)
	}

	eng := storeEng(t, 2, dir)
	got, st := sweepRows(t, eng, grid)
	if st.Eval.DiskHits != 0 || st.Eval.Misses == 0 {
		t.Fatalf("corrupted store still served records: %+v", st)
	}
	if eng.cache.store.Stats().Faults == 0 {
		t.Fatal("corruption not observed as faults")
	}
	if !slices.Equal(got, want) {
		t.Fatal("rows recomputed over a corrupted store differ")
	}

	// The recomputation rewrote the records: the next engine is warm
	// again, and the damaged segment is gone.
	eng = storeEng(t, 2, dir)
	if _, st := sweepRows(t, eng, grid); st.Eval.Misses != 0 {
		t.Fatalf("store not repaired by recomputation: %+v", st)
	}
	if f := eng.cache.store.Stats().Faults; f != 0 {
		t.Fatalf("damage faulted again on the next run: %d faults", f)
	}
}

// TestStoreTierConcurrentEngines runs two engines over one shared
// artifact directory at the same time (run under -race in CI), the
// multi-process sharing contract exercised in-process: no torn reads, no
// errors, equal rows.
func TestStoreTierConcurrentEngines(t *testing.T) {
	grid := storeGrid()
	dir := t.TempDir()
	engines := []*Engine{storeEng(t, 2, dir), storeEng(t, 2, dir)}
	var wg sync.WaitGroup
	results := make([][]Result, len(engines))
	errs := make([]error, len(engines))
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = engines[i].Rows(context.Background(), grid)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	if !slices.Equal(results[0], results[1]) {
		t.Fatal("concurrent engines emitted different rows")
	}

	// After both runs, the store serves a third engine completely.
	if _, st := sweepRows(t, storeEng(t, 2, dir), grid); st.Schedule.Requests() != 0 || st.Eval.Misses != 0 {
		t.Fatalf("store left cold by concurrent writers: %+v", st)
	}
}

// TestStoreKeyPinsMachineSpec pins the record key's extra strictness
// over the machine name: two machines sharing a name but not a
// specification must not share records — the warm engine takes clean
// misses (no decode faults from a wrong record) and recomputes.
func TestStoreKeyPinsMachineSpec(t *testing.T) {
	dir := t.TempDir()
	spec := []machine.ClusterSpec{{Adders: 1, Multipliers: 1, MemPorts: 1}}
	mA := machine.MustNew("mutating-preset", spec, 3, 3, 1)
	mB := machine.MustNew("mutating-preset", spec, 6, 6, 1) // same name, new latencies
	grid := Grid{Corpus: loops.Kernels()[:3], Machines: []*machine.Config{mA}, Models: core.Models[:], Regs: []int{32}}

	eng1 := storeEng(t, 1, dir)
	sweepRows(t, eng1, grid)
	if eng1.cache.store.Stats().Writes == 0 {
		t.Fatal("nothing persisted")
	}

	grid.Machines = []*machine.Config{mB}
	eng2 := storeEng(t, 1, dir)
	_, st := sweepRows(t, eng2, grid)
	if st.Eval.DiskHits != 0 || st.Eval.Misses == 0 {
		t.Fatalf("respecced machine served stale records: %+v", st)
	}
	if f := eng2.cache.store.Stats().Faults; f != 0 {
		t.Fatalf("respecced machine decoded wrong records (%d faults); the key must miss cleanly", f)
	}
}

// TestRecordKeyCoversOptions fails when sched.Options gains a field:
// recordKey writes every field by name, so a new one must be added
// there, or distinct problems would share a record.
func TestRecordKeyCoversOptions(t *testing.T) {
	if n := reflect.TypeOf(sched.Options{}).NumField(); n != 3 {
		t.Fatalf("sched.Options has %d fields; recordKey writes 3", n)
	}
	g, m := loops.Kernels()[0], machine.Eval(3)
	keys := map[string]bool{}
	for _, opts := range []sched.Options{{}, {BudgetRatio: 1}, {MaxIISlack: 1}, {MinII: 1}} {
		keys[recordKey(g, m, opts)] = true
	}
	keys[recordKey(g, machine.Eval(6), sched.Options{})] = true
	keys[recordKey(loops.Kernels()[1], m, sched.Options{})] = true
	if len(keys) != 6 {
		t.Fatalf("%d distinct keys over 6 distinct problems", len(keys))
	}
}

// TestStoreTierDoesNotPersistErrors pins the negative-result policy:
// of all failures only non-convergence is recorded. A base the
// scheduler cannot build writes nothing, and a scheduler failure in a
// spill round — a loop without memory operations on a machine without
// memory ports, whose first spill code cannot be scheduled — leaves
// the group's other cells recorded and the failing one out, so a fresh
// engine recomputes it and fails the same way.
func TestStoreTierDoesNotPersistErrors(t *testing.T) {
	noMem := machine.MustNew("no-mem-store", []machine.ClusterSpec{{Adders: 1, Multipliers: 1}}, 3, 3, 1)
	dir := t.TempDir()
	grid := Grid{Corpus: loops.Kernels()[:1], Machines: []*machine.Config{noMem}, Models: []core.Model{core.Unified}, Regs: []int{16}}
	eng := storeEng(t, 1, dir)
	if rows, _ := sweepRows(t, eng, grid); rows[0].Error == "" {
		t.Fatal("expected a scheduling failure: every kernel has loads")
	}
	if w := eng.cache.store.Stats().Writes; w != 0 {
		t.Fatalf("failure persisted: %d writes", w)
	}

	g := ddg.New("no-memory", 100)
	sum := g.AddNode(ddg.FADD, "s0")
	for i := 1; i <= 8; i++ {
		p := g.AddNode(ddg.FMUL, fmt.Sprintf("p%d", i))
		s := g.AddNode(ddg.FADD, fmt.Sprintf("s%d", i))
		g.Flow(p, s)
		g.Flow(sum, s)
		sum = s
	}
	grid = Grid{Corpus: []*ddg.Graph{g}, Machines: []*machine.Config{noMem}, Models: []core.Model{core.Ideal, core.Unified}, Regs: []int{1}}
	cold, st := sweepRows(t, storeEng(t, 1, dir), grid)
	if cold[0].Error != "" || !strings.HasPrefix(cold[1].Error, "spill: sched") || st.Schedule.Requests() < 2 {
		t.Fatalf("cold rows %+v, %+v; want the Unified cell to fail scheduling its first spill round", cold, st)
	}
	warm, st := sweepRows(t, storeEng(t, 1, dir), grid)
	if st.Eval.Misses != 1 || st.Eval.DiskHits != 1 {
		t.Fatalf("warm run: eval stage %+v; want the Ideal cell from disk and the failing cell recomputed", st.Eval)
	}
	if !slices.Equal(cold, warm) {
		t.Fatalf("warm rows %+v, cold %+v", warm, cold)
	}
}

// TestGroupWalkRowMatchesSeparateWalks is the differential test of the
// one-walk group: on the kernels plus 100 synthetic loops, on both
// evaluation machines and the one- and four-cluster widths, at budgets
// that spill and at one where cells do not converge, a walk that
// serves a group's requirement row and its cells together returns
// exactly the row of a row-only walk and the metrics and errors of a
// cells-only walk — without a store, and with one, cold and warm.
func TestGroupWalkRowMatchesSeparateWalks(t *testing.T) {
	spec := loopgen.Defaults()
	spec.Loops = 100
	// experiment.EvalN(1, 6) and EvalN(4, 6), which this package cannot
	// import.
	evalN := func(n int) *machine.Config {
		specs := make([]machine.ClusterSpec, n)
		for i := range specs {
			specs[i] = machine.ClusterSpec{Adders: 1, Multipliers: 1, MemPorts: 1}
		}
		return machine.MustNew(fmt.Sprintf("eval%dc-L6", n), specs, 6, 6, 1)
	}
	grid := Grid{
		Corpus:   append(loops.Kernels(), loopgen.Generate(spec)...),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6), evalN(1), evalN(4)},
		Models:   core.Models[:],
		Regs:     []int{16, 32, 64},
	}
	rows := walkGroups(t, New(0), grid, true, false)
	cells := walkGroups(t, New(0), grid, false, true)
	spilled, failed := 0, 0
	for _, o := range cells {
		for k, m := range o.metrics {
			switch {
			case strings.Contains(o.errs[k], "did not converge"):
				failed++
			case m.Spilled > 0:
				spilled++
			}
		}
	}
	t.Logf("%d groups, %d spilled and %d non-converged cells", len(cells), spilled, failed)
	if spilled == 0 || failed == 0 {
		t.Fatal("the walks need spilled and non-converged cells")
	}
	dir := t.TempDir()
	for _, run := range []struct {
		name string
		eng  *Engine
	}{{"no store", New(0)}, {"cold store", storeEng(t, 0, dir)}, {"warm store", storeEng(t, 0, dir)}} {
		both := walkGroups(t, run.eng, grid, true, true)
		n := len(grid.Corpus)
		for i, o := range both {
			name := fmt.Sprintf("%s: %s on %s", run.name, grid.Corpus[i%n].LoopName, grid.Machines[i/n].Name())
			if o.row != rows[i].row {
				t.Fatalf("%s: row %+v, row-only walk %+v", name, o.row, rows[i].row)
			}
			if !slices.Equal(o.metrics, cells[i].metrics) || !slices.Equal(o.errs, cells[i].errs) {
				t.Fatalf("%s: cells %+v %q, cells-only walk %+v %q", name, o.metrics, o.errs, cells[i].metrics, cells[i].errs)
			}
		}
	}
}
