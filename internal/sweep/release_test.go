package sweep

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
)

// sweepUnitsRetaining is SweepUnits without the release step: the same
// group walk, every eval entry kept, done called as in SweepUnits. It
// is the reference the releasing executor's stage counters are held to.
func (e *Engine) sweepUnitsRetaining(ctx context.Context, grid Grid, units []Unit, done func()) error {
	groups := GroupUnits(units)
	return e.ForEach(ctx, len(groups), func(gi int) error {
		_, _, err := e.groupCells(ctx, grid, units, groups[gi], done)
		return err
	})
}

// TestSweepReleasesEvalEntries pins the retention rule of the streaming
// executor: a sweep leaves no eval entries behind, yet every stage
// counter equals that of an engine that retains everything — including
// for a corpus that lists loops twice, where the later group must find
// the earlier group's entries however far apart the two are dispatched.
// Against the flat per-unit reference, whose base and schedule requests
// differ by design (it requests both per cell), the eval stage matches
// in full and every stage computes the same artifacts.
func TestSweepReleasesEvalEntries(t *testing.T) {
	kernels := loops.Kernels()
	// Kernel 0 again by pointer, kernel 1 again by content only.
	twice := append(slices.Clone(kernels), kernels[0], loops.Kernels()[1])
	for _, tc := range []struct {
		name   string
		corpus []*ddg.Graph
	}{{"kernels", kernels}, {"kernel-listed-twice", twice}} {
		t.Run(tc.name, func(t *testing.T) {
			grid := Grid{
				Corpus:   tc.corpus,
				Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
				Models:   core.Models[:],
				Regs:     []int{16, 32, 64},
			}
			units := grid.Plan()
			ctx := context.Background()

			eng := New(4)
			rows := 0
			if err := eng.Sweep(ctx, grid, func(Result) { rows++ }); err != nil {
				t.Fatal(err)
			}
			if rows != len(units) {
				t.Fatalf("emitted %d rows, want %d", rows, len(units))
			}
			if l := eng.Cache().Lens(); l.Eval != 0 || l.Schedule == 0 || l.Base == 0 {
				t.Fatalf("after the sweep: %+v entries, want no eval entries and some schedule/base ones", l)
			}

			retaining := New(4)
			if err := retaining.sweepUnitsRetaining(ctx, grid, units, nil); err != nil {
				t.Fatal(err)
			}
			got, want := eng.Cache().StageStats(), retaining.Cache().StageStats()
			if got != want {
				t.Fatalf("stage counters differ from a retaining engine:\n got %+v\nwant %+v", got, want)
			}
			if retaining.Cache().Lens().Eval == 0 {
				t.Fatal("the retaining reference kept no eval entries")
			}

			flat := New(4)
			if err := flat.sweepUnitsFlat(ctx, grid, units, func(Result) {}); err != nil {
				t.Fatal(err)
			}
			fs := flat.Cache().StageStats()
			if got.Eval != fs.Eval {
				t.Fatalf("eval stage %+v, flat reference %+v", got.Eval, fs.Eval)
			}
			if got.Schedule.Misses != fs.Schedule.Misses || got.Base.Misses != fs.Base.Misses {
				t.Fatalf("computed schedule/base %d/%d, flat reference %d/%d",
					got.Schedule.Misses, got.Base.Misses, fs.Schedule.Misses, fs.Base.Misses)
			}
			if tc.name == "kernel-listed-twice" && got.Eval.Hits == 0 {
				t.Fatal("the repeated loops' groups hit no eval entry")
			}
		})
	}
}

// TestSweepReleasesOnlyItsOwnEntries pins the other half of the rule:
// entries a Compile created stay retained through a sweep that reads
// them, and a cancelled sweep releases what it created too.
func TestSweepReleasesOnlyItsOwnEntries(t *testing.T) {
	grid := testGrid()
	ctx := context.Background()
	eng := New(2)
	if _, err := eng.Compile(ctx, grid.Corpus[0], grid.Machines[0], core.Unified, 32); err != nil {
		t.Fatal(err)
	}
	if err := eng.Sweep(ctx, grid, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Cache().StageStats(); st.Eval.Hits == 0 {
		t.Fatalf("the sweep did not read the compiled entry: %+v", st.Eval)
	}
	if l := eng.Cache().Lens(); l.Eval != 1 {
		t.Fatalf("%d eval entries after the sweep, want the compiled one only", l.Eval)
	}

	cancelled := New(2)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	big := grid
	big.Corpus = loops.Kernels()
	err := cancelled.Sweep(cctx, big, func(Result) { cancel() })
	if err == nil {
		t.Fatal("a cancelled sweep returned no error")
	}
	if l := cancelled.Cache().Lens(); l.Eval != 0 {
		t.Fatalf("%d eval entries after a cancelled sweep, want 0", l.Eval)
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
