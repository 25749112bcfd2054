package experiment

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sweep"
)

// loopRun is one loop's compiled outcome under one model.
type loopRun struct {
	trips               int64
	ii, memOps, spilled int
}

// compileRuns is the per-loop oracle for the curve projections: it
// compiles every loop of the corpus under one model with its own
// Engine.Compile call, bypassing the sweep executor and BuildCurve.
func compileRuns(t *testing.T, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config, model core.Model, regs int) []loopRun {
	t.Helper()
	runs := make([]loopRun, len(corpus))
	for i, g := range corpus {
		res, err := eng.Compile(ctx0, g, m, model, regs)
		if err != nil {
			t.Fatalf("%s/%v: %v", g.LoopName, model, err)
		}
		runs[i] = loopRun{trips: g.TripsOrOne(), ii: res.Sched.II, memOps: res.MemOps(), spilled: res.SpilledValues}
	}
	return runs
}

// runTotals sums steady-state cycles (II × trips) and dynamic memory
// accesses (mem ops × trips) and counts the loops that needed spill
// code.
func runTotals(runs []loopRun) (cycles, accesses int64, spilledLoops int) {
	for _, r := range runs {
		cycles += int64(r.ii) * r.trips
		accesses += int64(r.memOps) * r.trips
		if r.spilled > 0 {
			spilledLoops++
		}
	}
	return cycles, accesses, spilledLoops
}

// sweepCurve builds the curve of corpus × every model × regs on m the
// way `ncdrf curve` does: one sweep of that grid, aggregated.
func sweepCurve(t *testing.T, corpus []*ddg.Graph, m *machine.Config, regs []int) *Curve {
	t.Helper()
	grid := sweep.Grid{Corpus: corpus, Machines: []*machine.Config{m}, Models: core.Models[:], Regs: regs}
	rows, err := testEng().Rows(ctx0, grid)
	if err != nil {
		t.Fatal(err)
	}
	return BuildCurve(rows)
}

// TestCurveMatchesPerfAggregates pins the curve projections to
// aggregates computed from per-loop compilations of the same cells:
// the curve is a different bookkeeping of identical sums, so relative
// performance, traffic density and spilled-loop counts must match
// exactly — this is what lets Fig8and9 project a plan's curve without
// moving a single figure value.
func TestCurveMatchesPerfAggregates(t *testing.T) {
	corpus := loops.Kernels()[:12]
	m := machine.Eval(6)
	const regs = 32
	eng := testEng()

	curve, err := study(t, corpus, Plan{Perf: []PerfConfig{{6, regs}}}).curve(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.Err(); err != nil {
		t.Fatal(err)
	}
	idealCycles, _, _ := runTotals(compileRuns(t, eng, corpus, m, core.Ideal, regs))
	ports := m.CountOfKind(machine.MemPort)
	for _, model := range core.Models {
		cycles, accesses, spilledLoops := runTotals(compileRuns(t, eng, corpus, m, model, regs))
		wantRel := float64(idealCycles) / float64(cycles)
		wantDens := float64(accesses) / (float64(cycles) * float64(ports))
		pt, ok := curve.Point(m.Name(), model.String(), regs)
		if !ok {
			t.Fatalf("curve missing %v point", model)
		}
		rel, ok := curve.RelPerformance(m.Name(), model.String(), regs)
		if !ok || rel != wantRel {
			t.Fatalf("%v: curve rel perf = %v (ok=%v), per-loop runs say %v", model, rel, ok, wantRel)
		}
		if d := pt.Density(ports); d != wantDens {
			t.Fatalf("%v: curve density = %v, per-loop runs say %v", model, d, wantDens)
		}
		if got := pt.SpillLoops(); got != spilledLoops {
			t.Fatalf("%v: curve spilled loops = %d, per-loop runs say %d", model, got, spilledLoops)
		}
		if pt.Cycles != cycles {
			t.Fatalf("%v: curve cycles = %d, per-loop runs say %d", model, pt.Cycles, cycles)
		}
	}
}

// TestBuildCurveAggregation drives BuildCurve over hand-made rows:
// axis ordering, point sums, spill-op and fit projections, and the
// failure accounting.
func TestBuildCurveAggregation(t *testing.T) {
	rows := []pipeline.Row{
		{Loop: "a", Machine: "m1", Model: "ideal", Regs: 16, II: 2, Trips: 10, MemOps: 2},
		{Loop: "b", Machine: "m1", Model: "ideal", Regs: 16, II: 3, Trips: 10, MemOps: 1},
		{Loop: "a", Machine: "m1", Model: "swapped", Regs: 16, II: 2, Trips: 10, MemOps: 4, Spilled: 1},
		{Loop: "b", Machine: "m1", Model: "swapped", Regs: 16, II: 3, Trips: 10, MemOps: 1},
		{Loop: "a", Machine: "m1", Model: "ideal", Regs: 8, II: 2, Trips: 10, MemOps: 2},
		{Loop: "b", Machine: "m1", Model: "ideal", Regs: 8, II: 3, Trips: 10, MemOps: 1},
		{Loop: "a", Machine: "m1", Model: "swapped", Regs: 8, II: 4, Trips: 10, MemOps: 6, Spilled: 2},
		{Loop: "b", Machine: "m1", Model: "swapped", Regs: 8, Error: "does not converge"},
	}
	c := BuildCurve(rows)
	if got := c.Regs; len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Fatalf("regs axis = %v, want ascending [8 16]", got)
	}
	if got := c.Models; len(got) != 2 || got[0] != "ideal" || got[1] != "swapped" {
		t.Fatalf("models axis = %v", got)
	}
	p, ok := c.Point("m1", "swapped", 16)
	if !ok || p.Loops != 2 || p.FitLoops != 1 || p.SpilledValues != 1 {
		t.Fatalf("swapped@16 point wrong: %+v ok=%v", p, ok)
	}
	if pct := p.FitPct(); pct != 50 {
		t.Fatalf("fit%% = %v, want 50", pct)
	}
	if ops, ok := c.SpillOps("m1", "swapped", 16); !ok || ops != 2 {
		t.Fatalf("spill ops = %d ok=%v, want 2 (5 mem ops vs 3 ideal)", ops, ok)
	}
	rel, ok := c.RelPerformance("m1", "swapped", 16)
	if !ok || rel != 1.0 {
		t.Fatalf("rel perf @16 = %v ok=%v, want exactly 1.0 (same IIs)", rel, ok)
	}
	// The failed cell: counted, excluded from sums, reported by Err.
	p8, _ := c.Point("m1", "swapped", 8)
	if p8.Failed != 1 || p8.Loops != 2 || p8.FitLoops != 0 || p8.SpillLoops() != 1 {
		t.Fatalf("swapped@8 failure accounting wrong: %+v", p8)
	}
	// Baseline-relative metrics compare matched populations: only loop
	// "a" survived swapped@8, so the ideal baseline is restricted to
	// loop "a" (20 cycles, 2 mem ops) — NOT the full-corpus baseline,
	// which would credit the failed loop as saved cycles and report the
	// broken cell as faster than ideal.
	if rel, ok := c.RelPerformance("m1", "swapped", 8); !ok || rel != 0.5 {
		t.Fatalf("swapped@8 rel perf = %v ok=%v, want 0.5 (20 ideal cycles / 40 model cycles)", rel, ok)
	}
	if ops, ok := c.SpillOps("m1", "swapped", 8); !ok || ops != 4 {
		t.Fatalf("swapped@8 spill ops = %d ok=%v, want 4 (6 mem ops vs loop a's 2 ideal)", ops, ok)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "does not converge") {
		t.Fatalf("Err() = %v, want the row failure", err)
	}
	// Without Ideal rows there is no baseline at all: the relative
	// metrics must report not-ok instead of guessing.
	noIdeal := BuildCurve(rows[2:4])
	if _, ok := noIdeal.RelPerformance("m1", "swapped", 16); ok {
		t.Fatal("rel perf without an ideal baseline must not be ok")
	}
	if _, ok := noIdeal.SpillOps("m1", "swapped", 16); ok {
		t.Fatal("spill ops without an ideal baseline must not be ok")
	}
	// No ideal baseline for a cell that only exists under one model.
	if _, ok := c.RelPerformance("m1", "swapped", 99); ok {
		t.Fatal("rel perf of a missing cell must not be ok")
	}
	if !math.IsNaN(p8.Density(0)) {
		t.Fatal("density with no ports must be NaN")
	}
}

// TestCurveRenderForms smoke-tests the three renderers over a real
// (small) sweep.
func TestCurveRenderForms(t *testing.T) {
	corpus := loops.Kernels()[:6]
	curve := sweepCurve(t, corpus, machine.Eval(3), []int{16, 32, 64})
	var tb bytes.Buffer
	if err := curve.Render(&tb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"register sensitivity (eval-L3, 6 loops): % of loops allocatable without spilling",
		"spill memory ops per iteration",
		"performance relative to ideal",
		"swapped",
	} {
		if !strings.Contains(tb.String(), want) {
			t.Fatalf("table render missing %q:\n%s", want, tb.String())
		}
	}
	var csv bytes.Buffer
	if err := curve.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "machine,model,regs,") {
		t.Fatalf("csv header wrong:\n%s", csv.String())
	}
	var ch bytes.Buffer
	if err := curve.RenderChart(&ch); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ch.String(), "legend:") {
		t.Fatalf("chart missing legend:\n%s", ch.String())
	}
}

// TestCurveCSVGolden pins the curve CSV over the curated kernels to a
// golden file, the same way the Figure 6/7 CSVs are pinned — the curve
// subsystem provably reproduces the paper-corpus numbers byte for byte.
func TestCurveCSVGolden(t *testing.T) {
	curve := sweepCurve(t, loops.Kernels(), machine.Eval(3), []int{16, 32, 48, 64})
	if err := curve.Err(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := curve.RenderCSV(&got); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join("testdata", "curve_kernels_lat3.csv")
	want, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("curve CSV drifted from golden %s\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
	}
}
