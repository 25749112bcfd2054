package sweep

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

func testGrid() Grid {
	return Grid{
		Corpus:   loops.Kernels()[:4],
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   []core.Model{core.Ideal, core.Unified, core.Swapped},
		Regs:     []int{32, 64},
	}
}

func TestPlanDeduplicates(t *testing.T) {
	g := testGrid()
	units := g.Plan()
	// Every requested cell is kept: 4 loops x 2 machines x 3 models x
	// 2 sizes (the Ideal duplicates share their computation through the
	// cache but still get their own result rows).
	if len(units) != 48 {
		t.Fatalf("planned %d units, want 48", len(units))
	}

	// Duplicate sizes and a same-name machine add nothing.
	g.Regs = []int{32, 64, 32}
	g.Machines = append(g.Machines, machine.Eval(6))
	if n := len(g.Plan()); n != 48 {
		t.Fatalf("duplicates not dropped: %d units", n)
	}

	// Empty Regs means one unlimited-file unit per loop/machine/model.
	g2 := testGrid()
	g2.Regs = nil
	if n := len(g2.Plan()); n != 4*2*3 {
		t.Fatalf("empty regs planned %d units", n)
	}
}

func TestSweepEmitsEveryUnit(t *testing.T) {
	eng := New(4)
	grid := testGrid()
	var results []Result
	if err := eng.Sweep(context.Background(), grid, func(r Result) {
		results = append(results, r)
	}); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(grid.Plan()) {
		t.Fatalf("emitted %d results, want %d", len(results), len(grid.Plan()))
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("%s/%s/%s: %s", r.Loop, r.Machine, r.Model, r.Error)
		}
		if r.II < 1 || r.Trips < 1 {
			t.Fatalf("degenerate result: %+v", r)
		}
	}
	// The base stage (schedule + lifetimes) is shared structurally: the
	// base-major plan requests exactly one base per (loop, machine)
	// group, not one per unit, so requests and computations both equal
	// the group count.
	st := eng.Cache().StageStats()
	wantBases := uint64(len(grid.Corpus) * len(grid.Machines))
	if st.Base.Misses != wantBases {
		t.Fatalf("base stage computed %d artifacts, want one per loop x machine = %d",
			st.Base.Misses, wantBases)
	}
	if st.Base.Requests() != wantBases {
		t.Fatalf("base stage saw %d requests, want one per group = %d (plan-level sharing)",
			st.Base.Requests(), wantBases)
	}
}

// TestSweepReportsPerUnitErrors checks that a unit that cannot compile
// carries its error in the result instead of aborting the sweep.
func TestSweepReportsPerUnitErrors(t *testing.T) {
	bad := ddg.New("impossible", 1)
	// A loop whose only op kind is missing from the machine cannot be
	// scheduled; machine.Eval always has memory ports, so build a
	// machine without multipliers instead.
	mul := bad.AddNode(ddg.FMUL, "m")
	bad.FlowD(mul, mul, 1)
	m := machine.MustNew("add-only", []machine.ClusterSpec{{Adders: 1, MemPorts: 1}}, 3, 3, 1)
	eng := New(2)
	grid := Grid{
		Corpus:   []*ddg.Graph{loops.Kernels()[0], bad},
		Machines: []*machine.Config{m},
		Models:   []core.Model{core.Ideal},
	}
	var got []Result
	if err := eng.Sweep(context.Background(), grid, func(r Result) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d results", len(got))
	}
	badFailed := false
	for _, r := range got {
		if r.Loop == "impossible" && r.Error != "" {
			badFailed = true
		}
	}
	if !badFailed {
		t.Fatalf("impossible loop did not report an error: %+v", got)
	}
}

// unitKey identifies a requested grid cell for planRef: machines
// collapse onto their name.
type unitKey struct {
	loop    int
	machine string
	model   core.Model
	regs    int
}

// planRef is Grid.Plan as it was before it deduplicated its axes: one
// map entry per cell. TestPlanMatchesCellDedup holds Plan to it.
func planRef(g Grid) []Unit {
	regs := g.Regs
	if len(regs) == 0 {
		regs = []int{0}
	}
	seen := map[unitKey]bool{}
	var units []Unit
	for mi, m := range g.Machines {
		for _, model := range g.Models {
			for _, r := range regs {
				for li := range g.Corpus {
					k := unitKey{loop: li, machine: m.Name(), model: model, regs: r}
					if seen[k] {
						continue
					}
					seen[k] = true
					units = append(units, Unit{Loop: li, Machine: mi, Model: model, Regs: r})
				}
			}
		}
	}
	return units
}

// TestPlanMatchesCellDedup checks Plan against planRef over random
// grids: same-name machines built apart, repeated models, and budgets
// that repeat or are negative, zero or missing altogether. The plans
// must hold the same units in the same order.
func TestPlanMatchesCellDedup(t *testing.T) {
	kernels := loops.Kernels()
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 500; trial++ {
		grid := Grid{Corpus: kernels[:rng.Intn(5)]}
		for i := rng.Intn(5); i > 0; i-- {
			grid.Machines = append(grid.Machines, machine.Eval(3+3*rng.Intn(2)))
		}
		for i := rng.Intn(6); i > 0; i-- {
			grid.Models = append(grid.Models, core.Models[rng.Intn(len(core.Models))])
		}
		for i := rng.Intn(6); i > 0; i-- {
			grid.Regs = append(grid.Regs, rng.Intn(5)*8-8)
		}
		if got, want := grid.Plan(), planRef(grid); !slices.Equal(got, want) {
			t.Fatalf("trial %d: machines %d, models %v, regs %v:\nPlan    %v\nplanRef %v",
				trial, len(grid.Machines), grid.Models, grid.Regs, got, want)
		}
	}
}
