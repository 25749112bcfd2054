package sweep

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
)

// TestGroupWalkCounters pins the eval stage's counters over the group
// walk. Every Ideal cell of a group after the first shares that cell's
// outcome as a memory hit, and every other cell is computed: with three
// budgets, that is two hits per group. A corpus that lists a loop twice
// walks its cells once per listing. With a store, a cold run computes
// the same cells and a warm one reads every one of them from disk, and
// all three runs emit the same rows.
func TestGroupWalkCounters(t *testing.T) {
	kernels := loops.Kernels()
	grid := Grid{
		Corpus:   kernels,
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{16, 32, 64},
	}
	ctx := context.Background()
	sweep := func(eng *Engine, grid Grid) ([]Result, CacheStats) {
		t.Helper()
		var rows []Result
		if err := eng.Sweep(ctx, grid, func(r Result) { rows = append(rows, r) }); err != nil {
			t.Fatal(err)
		}
		return rows, eng.Cache().StageStats().Eval
	}
	counts := func(grid Grid) (cells, hits uint64) {
		units := grid.Plan()
		return uint64(len(units)), uint64(len(GroupUnits(units)) * 2)
	}

	cells, hits := counts(grid)
	want := CacheStats{Hits: hits, Misses: cells - hits}
	rows, got := sweep(New(4), grid)
	if got != want {
		t.Fatalf("memory-only sweep: eval stage %+v, want %+v", got, want)
	}

	twice := grid
	twice.Corpus = append(slices.Clone(kernels), kernels[0], loops.Kernels()[1])
	twiceCells, twiceHits := counts(twice)
	if _, got := sweep(New(4), twice); got != (CacheStats{Hits: twiceHits, Misses: twiceCells - twiceHits}) {
		t.Fatalf("corpus listing loops twice: eval stage %+v, want %d hits and %d computed",
			got, twiceHits, twiceCells-twiceHits)
	}

	dir := t.TempDir()
	cold, got := sweep(storeEng(t, 4, dir), grid)
	if got != want {
		t.Fatalf("cold store: eval stage %+v, want %+v", got, want)
	}
	warm, got := sweep(storeEng(t, 4, dir), grid)
	if want := (CacheStats{Hits: hits, DiskHits: cells - hits}); got != want {
		t.Fatalf("warm store: eval stage %+v, want %+v", got, want)
	}
	if !slices.Equal(rows, cold) || !slices.Equal(rows, warm) {
		t.Fatal("store-backed sweeps emitted rows that differ from the memory-only sweep")
	}
}

// TestWarmStoreBuildsNoBase pins the lazy base of the group walk: a
// group requests its base only when some cell misses the disk, so a
// sweep over a warm store, where every cell is a disk hit, makes no
// base request and reads no schedule, and emits the cold run's rows.
func TestWarmStoreBuildsNoBase(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels()[:8],
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{16, 32},
	}
	dir := t.TempDir()
	run := func() ([]Result, StageStats) {
		t.Helper()
		eng := storeEng(t, 2, dir)
		rows, err := eng.Rows(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		return rows, eng.Cache().StageStats()
	}
	cold, st := run()
	if groups := uint64(len(grid.Groups())); st.Base.Requests() != groups {
		t.Fatalf("cold store: %d base requests, want one per group = %d", st.Base.Requests(), groups)
	}
	warm, st := run()
	if st.Base.Requests() != 0 || st.Schedule.Requests() != 0 {
		t.Fatalf("warm store: base stage %+v, schedule stage %+v; want no request at either", st.Base, st.Schedule)
	}
	if st.Eval.Misses != 0 {
		t.Fatalf("warm store computed %d cells", st.Eval.Misses)
	}
	if !slices.Equal(cold, warm) {
		t.Fatal("warm-store rows differ from the cold run's")
	}
}

// TestReorderShuffledGroups feeds whole groups to the reorder buffer in
// shuffled completion order, sequentially and from concurrent workers:
// rows come out in unit order, each as soon as the prefix before it is
// complete and with its identity rebuilt from the grid, and no group's
// rows are held once emitted. Each cell's record carries its unit index
// in II, so the emitted order is checked row by row.
func TestReorderShuffledGroups(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels()[:5],
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   []core.Model{core.Ideal, core.Swapped},
		Regs:     []int{8, 16, 32},
	}
	units := grid.Plan()
	groups := GroupUnits(units)
	rowsOf := func(g Group) groupRows {
		var rows groupRows
		for _, ui := range g.Units {
			rows.cells = append(rows.cells, cellRow{Metrics: pipeline.Metrics{II: int32(ui)}})
		}
		return rows
	}
	groupOf := map[int]int{}
	for gi, g := range groups {
		for _, ui := range g.Units {
			groupOf[ui] = gi
		}
	}
	var got []int
	collect := func(r Result) {
		if want := rowFor(grid, units[r.II]); r.Loop != want.Loop || r.Machine != want.Machine || r.Model != want.Model || r.Regs != want.Regs {
			t.Errorf("row of unit %d has identity %s/%s/%s/%d, want %s/%s/%s/%d",
				r.II, r.Loop, r.Machine, r.Model, r.Regs, want.Loop, want.Machine, want.Model, want.Regs)
		}
		got = append(got, r.II)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		got = nil
		o := newReorder(grid, units, groups, collect)
		put := map[int]bool{}
		for _, gi := range rng.Perm(len(groups)) {
			o.put(gi, rowsOf(groups[gi]))
			put[gi] = true
			ready := 0
			for ready < len(units) && put[groupOf[ready]] {
				ready++
			}
			if len(got) != ready {
				t.Fatalf("trial %d: %d rows emitted after putting group %d, want the ready prefix %d",
					trial, len(got), gi, ready)
			}
		}
		for i, ui := range got {
			if ui != i {
				t.Fatalf("trial %d: row %d is unit %d", trial, i, ui)
			}
		}
		for gi, rows := range o.rows {
			if rows.cells != nil || rows.errs != nil {
				t.Fatalf("trial %d: group %d's rows still held after emission", trial, gi)
			}
		}
	}

	got = nil
	o := newReorder(grid, units, groups, collect)
	var wg sync.WaitGroup
	for _, gi := range rng.Perm(len(groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.put(gi, rowsOf(groups[gi]))
		}()
	}
	wg.Wait()
	if len(got) != len(units) {
		t.Fatalf("concurrent puts emitted %d of %d rows", len(got), len(units))
	}
	for i, ui := range got {
		if ui != i {
			t.Fatalf("concurrent puts: row %d is unit %d", i, ui)
		}
	}
}

// TestReorderNeverBlocksWorkers parks the emitter on the stream's first
// row. While it is parked, the other worker's puts must return, so it
// finishes every remaining group, counted by the done hook; after the
// release every row comes out exactly once, in plan order.
func TestReorderNeverBlocksWorkers(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels()[:12],
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   []core.Model{core.Ideal, core.Unified},
		Regs:     []int{16, 32},
	}
	ctx := context.Background()
	want, err := New(1).Rows(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	units := grid.Plan()
	var done atomic.Int64
	allDone := make(chan struct{})
	parked, release := make(chan struct{}), make(chan struct{})
	var got []Result
	finished := make(chan error, 1)
	go func() {
		finished <- New(2).SweepUnits(ctx, grid, units, func(r Result) {
			if len(got) == 0 {
				close(parked)
				<-release
			}
			got = append(got, r)
		}, func() {
			if done.Add(1) == int64(len(units)) {
				close(allDone)
			}
		})
	}()
	<-parked
	select {
	case <-allDone:
	case <-time.After(time.Minute):
		close(release)
		t.Fatalf("%d of %d units done while the emitter was parked: a worker waits on the emission",
			done.Load(), len(units))
	}
	close(release)
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("emitted %d rows, want the %d rows of the plan in order", len(got), len(want))
	}
}
