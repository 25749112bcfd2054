package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

// encodeStream renders an emitted result stream the way cmd/ncdrf does,
// so "byte-identical" below means what it means to `ncdrf merge`.
func encodeStream(t *testing.T, run func(emit func(Result)) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := run(func(r Result) {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepUnitsFlat is the pre-grouping executor: every unit independently
// re-requests its stages through the cache, in unit order, each cell
// walking its own spill chain. It is the reference implementation for
// the executor equivalence property test — the two executors must emit
// byte-identical streams over any grid and any shard split.
func (e *Engine) sweepUnitsFlat(ctx context.Context, grid Grid, units []Unit, emit func(Result)) error {
	singles := make([]Group, len(units))
	for i, u := range units {
		singles[i] = Group{Loop: u.Loop, Machine: u.Machine, Units: []int{i}}
	}
	out := newReorder(grid, units, singles, emit)
	return e.ForEach(ctx, len(units), func(i int) error {
		u := units[i]
		res, err := e.Compile(ctx, grid.Corpus[u.Loop], grid.Machines[u.Machine], u.Model, u.Regs)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		var rows groupRows
		rows.add(res, err)
		out.put(i, rows)
		return nil
	})
}

// TestBaseMajorMatchesFlatStream is the equivalence property of the
// group → cell executor: over randomized grids (unsorted register axes
// included) and randomized shard splits, it emits a stream
// byte-identical to the flat unit-at-a-time reference path. Each
// trial's shards run on a fresh engine, so a shard that cuts a group
// walks its partial group itself. Run under -race in CI, this also
// exercises the reorder-buffer synchronization.
func TestBaseMajorMatchesFlatStream(t *testing.T) {
	kernels := loops.Kernels()
	machinePool := []*machine.Config{
		machine.Eval(3), machine.Eval(6), machine.PxLy(1, 3), machine.PxLy(2, 6),
	}
	modelPool := []core.Model{core.Ideal, core.Unified, core.Partitioned, core.Swapped}
	regsPool := []int{0, 8, 12, 16, 24, 32, 64}

	rng := rand.New(rand.NewSource(1995))
	pick := func(n, max int) []int {
		out := rng.Perm(max)[:n]
		return out
	}
	ctx := context.Background()
	flatEng, groupEng := New(4), New(4)
	cuts := 0 // shard groups smaller than their full-plan groups
	for trial := 0; trial < 12; trial++ {
		var grid Grid
		for _, ki := range pick(1+rng.Intn(5), len(kernels)) {
			grid.Corpus = append(grid.Corpus, kernels[ki])
		}
		for _, mi := range pick(1+rng.Intn(len(machinePool)), len(machinePool)) {
			grid.Machines = append(grid.Machines, machinePool[mi])
		}
		for _, mo := range pick(1+rng.Intn(len(modelPool)), len(modelPool)) {
			grid.Models = append(grid.Models, modelPool[mo])
		}
		for n := 1 + rng.Intn(4); n >= 0; n-- {
			grid.Regs = append(grid.Regs, regsPool[rng.Intn(len(regsPool))])
		}
		units := grid.Plan()

		flat := encodeStream(t, func(emit func(Result)) error {
			return flatEng.sweepUnitsFlat(ctx, grid, units, emit)
		})
		grouped := encodeStream(t, func(emit func(Result)) error {
			return groupEng.SweepUnits(ctx, grid, units, emit, nil)
		})
		if !bytes.Equal(flat, grouped) {
			t.Fatalf("trial %d: group-major stream differs from flat stream\nflat:\n%s\ngrouped:\n%s",
				trial, flat, grouped)
		}

		// Any shard split of the grouped path concatenates back into the
		// same stream: shards are contiguous plan slices and each shard
		// regroups only its own units.
		n := 2 + rng.Intn(4)
		full := map[[2]int]int{}
		for _, g := range GroupUnits(units) {
			full[[2]int{g.Loop, g.Machine}] = len(g.Units)
		}
		shardEng := New(4)
		var spliced []byte
		for i := 1; i <= n; i++ {
			shard, err := ShardOf(units, i, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range GroupUnits(shard) {
				if len(g.Units) < full[[2]int{g.Loop, g.Machine}] {
					cuts++
				}
			}
			spliced = append(spliced, encodeStream(t, func(emit func(Result)) error {
				return shardEng.SweepUnits(ctx, grid, shard, emit, nil)
			})...)
		}
		if !bytes.Equal(flat, spliced) {
			t.Fatalf("trial %d: %d-shard streams do not splice into the flat stream", trial, n)
		}
	}
	if cuts == 0 {
		t.Fatal("no shard split cut a group; the property needs partial groups")
	}
}

// TestBaseMajorOneBasePerGroup pins the stage-counter contract of the
// two-level plan: a dense register curve requests and computes the base
// stage exactly once per (loop, machine) group, and with a model that
// never spills the scheduler itself also runs exactly once per group.
func TestBaseMajorOneBasePerGroup(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels()[:6],
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   []core.Model{core.Ideal, core.Unified, core.Partitioned, core.Swapped},
		Regs:     []int{8, 16, 24, 32, 40, 48, 56, 64},
	}
	groups := len(grid.Corpus) * len(grid.Machines)
	if got := len(grid.Groups()); got != groups {
		t.Fatalf("grid partitions into %d groups, want %d", got, groups)
	}

	eng := New(0)
	var rows int
	if err := eng.Sweep(context.Background(), grid, func(r Result) { rows++ }); err != nil {
		t.Fatal(err)
	}
	if want := len(grid.Plan()); rows != want {
		t.Fatalf("emitted %d rows, want %d", rows, want)
	}
	st := eng.Cache().StageStats()
	if st.Base.Requests() != uint64(groups) || st.Base.Misses != uint64(groups) {
		t.Fatalf("base stage: %d requests, %d computed; want exactly one per group = %d",
			st.Base.Requests(), st.Base.Misses, groups)
	}
	// Spill rounds request fresh schedules (rewritten graphs), so the
	// schedule stage may exceed the group count on tight budgets — but
	// never fall below it, and an ideal-only sweep hits it exactly.
	if st.Schedule.Misses < uint64(groups) {
		t.Fatalf("schedule stage computed %d, want >= one per group = %d", st.Schedule.Misses, groups)
	}

	ideal := New(0)
	idealGrid := grid
	idealGrid.Models = []core.Model{core.Ideal}
	if err := ideal.Sweep(context.Background(), idealGrid, func(Result) {}); err != nil {
		t.Fatal(err)
	}
	if st := ideal.Cache().StageStats(); st.Schedule.Misses != uint64(groups) {
		t.Fatalf("ideal-only curve computed %d schedules, want loops x machines = %d",
			st.Schedule.Misses, groups)
	}
}

// TestSweepValidatesEmptyAxes pins the empty-axis contract: a grid with
// an empty dimension errors out naming the axis instead of silently
// emitting nothing.
func TestSweepValidatesEmptyAxes(t *testing.T) {
	full := testGrid()
	eng := New(2)
	cases := []struct {
		name string
		mut  func(*Grid)
	}{
		{"Corpus", func(g *Grid) { g.Corpus = nil }},
		{"Machines", func(g *Grid) { g.Machines = nil }},
		{"Models", func(g *Grid) { g.Models = nil }},
	}
	for _, tc := range cases {
		g := full
		tc.mut(&g)
		err := eng.Sweep(context.Background(), g, func(Result) {
			t.Fatalf("%s: emitted a row from an empty grid", tc.name)
		})
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("empty %s axis: error %v does not name the axis", tc.name, err)
		}
	}
	// Empty Regs stays valid: Plan documents it as one unlimited file.
	g := full
	g.Regs = nil
	if err := eng.Sweep(context.Background(), g, func(Result) {}); err != nil {
		t.Fatalf("empty Regs must remain valid: %v", err)
	}
}

// TestGroupUnitsShardPartial pins that grouping a shard only covers the
// shard's units and preserves their order.
func TestGroupUnitsShardPartial(t *testing.T) {
	units := []Unit{
		{Loop: 0, Machine: 0, Model: core.Unified, Regs: 8},
		{Loop: 1, Machine: 0, Model: core.Unified, Regs: 8},
		{Loop: 0, Machine: 0, Model: core.Unified, Regs: 16},
		{Loop: 0, Machine: 1, Model: core.Unified, Regs: 8},
		{Loop: 1, Machine: 0, Model: core.Unified, Regs: 16},
	}
	groups := GroupUnits(units)
	if len(groups) != 3 {
		t.Fatalf("grouped into %d groups, want 3", len(groups))
	}
	seen := map[int]bool{}
	total := 0
	for _, g := range groups {
		last := -1
		for _, ui := range g.Units {
			u := units[ui]
			if u.Loop != g.Loop || u.Machine != g.Machine {
				t.Fatalf("unit %d (%+v) filed under group (%d,%d)", ui, u, g.Loop, g.Machine)
			}
			if ui <= last {
				t.Fatalf("group (%d,%d) units out of order: %v", g.Loop, g.Machine, g.Units)
			}
			last = ui
			if seen[ui] {
				t.Fatalf("unit %d in two groups", ui)
			}
			seen[ui] = true
			total++
		}
	}
	if total != len(units) {
		t.Fatalf("groups cover %d of %d units", total, len(units))
	}
}

// TestSeriesWalkOneScheduleRequestPerRound pins the group executor's
// stage-counter contract: on a cold engine, every (loop, machine) group
// walks its spill chain once for all its models and budgets, so the
// schedule stage sees exactly one request per base plus one per chain
// round after the seeded first — the group's largest row Rounds minus
// one — and computes every request it sees.
func TestSeriesWalkOneScheduleRequestPerRound(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{16, 24, 32, 40, 48, 56, 64},
	}
	eng := New(0)
	type gkey struct{ loop, machine string }
	maxRounds := map[gkey]int{}
	if err := eng.Sweep(context.Background(), grid, func(r Result) {
		if r.Error != "" {
			t.Fatalf("%s/%s/%s at %d regs failed: %s", r.Loop, r.Machine, r.Model, r.Regs, r.Error)
		}
		k := gkey{r.Loop, r.Machine}
		maxRounds[k] = max(maxRounds[k], r.Rounds)
	}); err != nil {
		t.Fatal(err)
	}
	var chainRounds uint64
	for _, rounds := range maxRounds {
		chainRounds += uint64(rounds - 1)
	}
	st := eng.Cache().StageStats()
	if want := st.Base.Requests() + chainRounds; st.Schedule.Requests() != want {
		t.Fatalf("schedule stage: %d requests, want base requests %d + chain rounds %d = %d",
			st.Schedule.Requests(), st.Base.Requests(), chainRounds, want)
	}
	if st.Schedule.Misses != st.Schedule.Requests() {
		t.Fatalf("schedule stage: %d of %d requests computed; a cold group walk requests no schedule twice",
			st.Schedule.Misses, st.Schedule.Requests())
	}
	if chainRounds == 0 {
		t.Fatal("no group spilled; the grid must exercise spill chains")
	}
	t.Logf("%d groups, %d chain rounds, %d schedule requests", len(maxRounds), chainRounds, st.Schedule.Requests())
}
