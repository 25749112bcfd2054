package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/store"
	"ncdrf/internal/sweep"
)

// testEng returns a fresh engine; ctx0 is shorthand for the background
// context the tests run under.
func testEng() *sweep.Engine { return sweep.New(0) }

var ctx0 = context.Background()

// smallCorpus keeps unit tests fast while exercising the full pipeline.
func smallCorpus() []*ddg.Graph {
	return Corpus(loopgen.Params{Loops: 40, Seed: 123, RecurrenceProb: 0.3, ShareProb: 0.3})
}

// study runs plan over corpus on a fresh engine.
func study(t *testing.T, corpus []*ddg.Graph, plan Plan) *Study {
	t.Helper()
	s, err := Run(ctx0, testEng(), corpus, plan)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowsOn returns the requirement rows of corpus on m, from a plan of
// that machine alone.
func rowsOn(t *testing.T, corpus []*ddg.Graph, m *machine.Config) []Requirements {
	t.Helper()
	reqs, err := study(t, corpus, Plan{Rows: []*machine.Config{m}}).Requirements(m)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestCorpusComposition(t *testing.T) {
	c := Corpus(loopgen.Params{Loops: 10, Seed: 1, RecurrenceProb: 0.3, ShareProb: 0.3})
	if len(c) != len(loops.Kernels())+10 {
		t.Fatalf("corpus size = %d", len(c))
	}
	names := map[string]bool{}
	for _, g := range c {
		if names[g.LoopName] {
			t.Fatalf("duplicate loop %s", g.LoopName)
		}
		names[g.LoopName] = true
	}
}

func TestRegisterSweepOrdering(t *testing.T) {
	corpus := smallCorpus()
	reqs := rowsOn(t, corpus, machine.Eval(6))
	if len(reqs) != len(corpus) {
		t.Fatalf("got %d results", len(reqs))
	}
	for i, r := range reqs {
		if r.Name != corpus[i].LoopName {
			t.Fatalf("result %d out of order: %s vs %s", i, r.Name, corpus[i].LoopName)
		}
		if r.II < 1 {
			t.Fatalf("%s: II = %d", r.Name, r.II)
		}
		if r.Regs[core.Ideal] != 0 {
			t.Fatalf("%s: ideal requirement %d", r.Name, r.Regs[core.Ideal])
		}
		if r.Regs[core.Unified] < 1 {
			t.Fatalf("%s: unified requirement %d", r.Name, r.Regs[core.Unified])
		}
		// The swap pass only ever helps (or ties) the estimate it
		// optimizes; requirements can differ slightly, but swapped must
		// never exceed partitioned by more than a couple of registers
		// of First Fit noise. Assert the strong practical invariant
		// used by the paper's plots: swapped <= partitioned.
		if r.Regs[core.Swapped] > r.Regs[core.Partitioned] {
			t.Logf("%s: swapped %d > partitioned %d", r.Name, r.Regs[core.Swapped], r.Regs[core.Partitioned])
		}
	}
}

func TestSweepShapePartitionedHelps(t *testing.T) {
	// Aggregate shape: over the corpus, partitioned requirements must be
	// no larger than unified for the vast majority of loops, and the
	// totals must order unified >= partitioned >= swapped.
	reqs := rowsOn(t, smallCorpus(), machine.Eval(6))
	var uni, part, swp int
	worse := 0
	for _, r := range reqs {
		uni += r.Regs[core.Unified]
		part += r.Regs[core.Partitioned]
		swp += r.Regs[core.Swapped]
		if r.Regs[core.Partitioned] > r.Regs[core.Unified] {
			worse++
		}
	}
	if !(uni >= part && part >= swp) {
		t.Fatalf("aggregate ordering violated: unified=%d partitioned=%d swapped=%d", uni, part, swp)
	}
	if float64(worse) > 0.1*float64(len(reqs)) {
		t.Fatalf("partitioned worse than unified on %d/%d loops", worse, len(reqs))
	}
}

func TestTable1ShapeAndRender(t *testing.T) {
	res, err := Table1(study(t, smallCorpus(), Table1Plan()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Percentages must be monotone in the register count.
		if !(row.PctLoops[0] <= row.PctLoops[1]+1e-9 && row.PctLoops[1] <= row.PctLoops[2]+1e-9) {
			t.Fatalf("%s: loop percentages not monotone: %v", row.Config, row.PctLoops)
		}
		if !(row.PctCycles[0] <= row.PctCycles[1]+1e-9 && row.PctCycles[1] <= row.PctCycles[2]+1e-9) {
			t.Fatalf("%s: cycle percentages not monotone: %v", row.Config, row.PctCycles)
		}
	}
	// More aggressive configurations (latency 6) must fit fewer loops in
	// 32 registers than their latency-3 counterparts.
	byName := map[string]Table1Row{}
	for _, row := range res.Rows {
		byName[row.Config] = row
	}
	if byName["P1L6"].PctLoops[1] > byName["P1L3"].PctLoops[1] {
		t.Fatal("latency 6 should fit fewer loops in 32 regs than latency 3")
	}
	if byName["P2L6"].PctLoops[2] > byName["P1L3"].PctLoops[2] {
		t.Fatal("P2L6 should fit fewer loops in 64 regs than P1L3")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P2L6") || !strings.Contains(buf.String(), "Table 1") {
		t.Fatalf("render missing content:\n%s", buf.String())
	}
}

func TestFig6And7Shape(t *testing.T) {
	st := study(t, smallCorpus(), CDFPlan())
	for _, lat := range []int{3, 6} {
		stat, err := FigCDF(st, lat, false)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := FigCDF(st, lat, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*CDFResult{stat, dyn} {
			for _, model := range cdfModels {
				series := res.Series[model]
				if len(series) != len(FigXAxis) {
					t.Fatalf("series length %d", len(series))
				}
				for i := 1; i < len(series); i++ {
					if series[i] < series[i-1]-1e-9 {
						t.Fatalf("lat %d %v: CDF not monotone: %v", lat, model, series)
					}
				}
				if series[len(series)-1] < 99.0 {
					t.Fatalf("lat %d %v: CDF does not reach ~100%%: %v", lat, model, series)
				}
			}
			// Partitioned dominates unified pointwise (>= at every x).
			for i := range FigXAxis {
				if res.Series[core.Partitioned][i] < res.Series[core.Unified][i]-1e-9 {
					t.Fatalf("lat %d: partitioned below unified at x=%d", lat, FigXAxis[i])
				}
			}
		}
		var buf bytes.Buffer
		if err := stat.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "Figure 6") {
			t.Fatal("render missing title")
		}
		buf.Reset()
		if err := dyn.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "Figure 7") {
			t.Fatal("render missing title")
		}
	}
}

// TestStudySharesSweeps pins the plan's contract, on one engine: one
// run of PaperPlan requests exactly one base per distinct (loop,
// machine) group — the eight machines of every exhibit, with the
// two-cluster width collapsing onto the latency-6 evaluation machine —
// and one eval request per requirement row and per Figure 8/9 cell, so
// no exhibit measures anything twice. Each exhibit's own plan builds
// one base per loop and machine it renders, and projecting every
// exhibit adds no work. Over a store, a cold run writes each group's
// record once and a warm run reads each once, writing nothing.
func TestStudySharesSweeps(t *testing.T) {
	corpus := loops.Kernels()
	n := uint64(len(corpus))
	storeEng := func(dir string) (*sweep.Engine, *store.Store) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := testEng()
		eng.SetStore(st)
		return eng, st
	}
	for _, tc := range []struct {
		name           string
		plan           Plan
		machines, rows uint64 // distinct machines; those with rows
	}{
		{"paper", PaperPlan(), 8, 8},
		{"table1", Table1Plan(), 4, 4},
		{"cdf", CDFPlan(), 2, 2},
		{"perf", PerfPlan(), 2, 0},
		{"clusters", ClusterPlan(6, ClusterCounts), 3, 3},
	} {
		dir := t.TempDir()
		eng, cold := storeEng(dir)
		st, err := Run(ctx0, eng, corpus, tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		stats := eng.Cache().StageStats()
		if got, want := stats.Base.Requests(), tc.machines*n; got != want {
			t.Fatalf("%s: %d base requests, want one per (loop, machine) = %d", tc.name, got, want)
		}
		if got := cold.Stats().Writes; got != tc.machines*n {
			t.Fatalf("%s: cold run wrote %d records, want one per group = %d", tc.name, got, tc.machines*n)
		}
		warmEng, warm := storeEng(dir)
		if _, err := Run(ctx0, warmEng, corpus, tc.plan); err != nil {
			t.Fatal(err)
		}
		if s := warm.Stats(); s.Hits != tc.machines*n || s.Writes != 0 || warmEng.Cache().StageStats().Base.Requests() != 0 {
			t.Fatalf("%s: warm run: store %+v, %s; want one read per group, no write, no base", tc.name, s, warmEng.Cache().StageStats())
		}
		// Eight cells per Figure 8/9 group (four models at two budgets),
		// the Ideal cell at 64 registers sharing the one at 32.
		cells := uint64(0)
		if tc.plan.Perf != nil {
			cells = 2 * 8 * n
		}
		if got, want := stats.Eval.Requests(), tc.rows*n+cells; got != want || stats.Eval.Hits != cells/8 {
			t.Fatalf("%s: eval stage %+v, want %d requests (%d rows, %d cells), %d from memory", tc.name, stats.Eval, want, tc.rows*n, cells, cells/8)
		}
		if tc.name != "paper" {
			continue
		}
		if _, err := Table1(st); err != nil {
			t.Fatal(err)
		}
		for _, lat := range []int{3, 6} {
			if _, err := FigCDF(st, lat, false); err != nil {
				t.Fatal(err)
			}
			if _, err := FigCDF(st, lat, true); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Fig8and9(st, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ClusterScaling(st, 6, ClusterCounts); err != nil {
			t.Fatal(err)
		}
		if after := eng.Cache().StageStats(); after != stats {
			t.Fatalf("projecting the exhibits moved the counters: %+v, then %+v", stats, after)
		}
	}
}

func TestLatencySixNeedsMoreRegisters(t *testing.T) {
	st := study(t, smallCorpus(), CDFPlan())
	l3, err := FigCDF(st, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	l6, err := FigCDF(st, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	// At 32 registers the latency-6 unified curve must sit below the
	// latency-3 one (fewer loops fit).
	i32 := indexOf(FigXAxis, 32)
	if l6.Series[core.Unified][i32] > l3.Series[core.Unified][i32] {
		t.Fatalf("latency 6 fits more loops at 32 regs (%v vs %v)",
			l6.Series[core.Unified][i32], l3.Series[core.Unified][i32])
	}
}

// TestCompileLoopIdealVsLimited pins the worked example's outcome at
// 32 registers: the unified file spills, the dual file does not.
func TestCompileLoopIdealVsLimited(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	ideal, err := testEng().Compile(ctx0, g, m, core.Ideal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Sched.II != 1 || ideal.MemOps() != 3 || ideal.SpilledValues != 0 {
		t.Fatalf("ideal run: II %d, mem ops %d, spilled %d", ideal.Sched.II, ideal.MemOps(), ideal.SpilledValues)
	}
	limited, err := testEng().Compile(ctx0, g, m, core.Unified, 32)
	if err != nil {
		t.Fatal(err)
	}
	if limited.SpilledValues == 0 || limited.MemOps() <= 3 {
		t.Fatalf("unified@32 must spill: spilled %d, mem ops %d", limited.SpilledValues, limited.MemOps())
	}
	dual, err := testEng().Compile(ctx0, g, m, core.Partitioned, 32)
	if err != nil {
		t.Fatal(err)
	}
	if dual.SpilledValues != 0 {
		t.Fatalf("partitioned@32 must not spill: spilled %d", dual.SpilledValues)
	}
}

func TestFig8and9SmallCorpusShape(t *testing.T) {
	configs := []PerfConfig{{6, 32}}
	res, err := Fig8and9(study(t, smallCorpus(), Plan{Perf: configs}), configs)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Performance[0]
	if p[core.Ideal] != 1.0 {
		t.Fatalf("ideal performance = %v", p[core.Ideal])
	}
	for _, model := range core.Models {
		if p[model] <= 0 || p[model] > 1.0+1e-9 {
			t.Fatalf("%v performance out of range: %v", model, p[model])
		}
	}
	// The headline orderings of Figure 8 at the high-pressure config.
	if !(p[core.Unified] <= p[core.Partitioned]+1e-9) {
		t.Fatalf("unified (%v) must not beat partitioned (%v)", p[core.Unified], p[core.Partitioned])
	}
	if !(p[core.Partitioned] <= p[core.Swapped]+1e-9) {
		t.Fatalf("partitioned (%v) must not beat swapped (%v)", p[core.Partitioned], p[core.Swapped])
	}
	// Figure 9: unified must generate at least as much traffic density.
	d := res.Density[0]
	if d[core.Unified] < d[core.Swapped]-1e-9 {
		t.Fatalf("unified density (%v) below swapped (%v)", d[core.Unified], d[core.Swapped])
	}
	var buf bytes.Buffer
	if err := res.RenderFig8(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Fatal("fig8 render missing title")
	}
	buf.Reset()
	if err := res.RenderFig9(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Fatal("fig9 render missing title")
	}
}

func TestVerifySampleIntegration(t *testing.T) {
	// End-to-end: a slice of the real evaluation corpus executes
	// bit-identically to the reference under every model, both with
	// unlimited registers and with a tight 24-register file.
	corpus := smallCorpus()
	m := machine.Eval(6)
	n, err := VerifySample(ctx0, testEng(), corpus, m, 0, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("verified only %d combinations", n)
	}
	n, err = VerifySample(ctx0, testEng(), corpus, m, 24, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Fatalf("verified only %d spilled combinations", n)
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
