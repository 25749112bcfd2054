package ncdrf

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestPaperExampleThroughFacade(t *testing.T) {
	l := PaperExample()
	if l.Name() != "paper-example" || l.Ops() != 7 {
		t.Fatalf("loop = %s/%d ops", l.Name(), l.Ops())
	}
	reqs, ii, err := Requirements(l, ExampleMachine())
	if err != nil {
		t.Fatal(err)
	}
	if ii != 1 {
		t.Fatalf("II = %d", ii)
	}
	want := map[Model]int{Ideal: 0, Unified: 42, Partitioned: 29, Swapped: 23}
	for model, w := range want {
		if reqs[model] != w {
			t.Errorf("%v = %d, want %d", model, reqs[model], w)
		}
	}
}

func TestParseLoopAndCompile(t *testing.T) {
	l, err := ParseLoop(`
loop demo trips 500
invariant a
x1 = load x
m1 = fmul a, x1
y1 = load y
s1 = fadd m1, y1
store y, s1
`)
	if err != nil {
		t.Fatal(err)
	}
	if l.Trips() != 500 {
		t.Fatalf("trips = %d", l.Trips())
	}
	res, err := Compile(l, EvalMachine(3), Unified, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.II < 2 {
		t.Fatalf("II = %d (3 mem ops on 2 ports need >= 2)", res.II)
	}
	if res.SpilledValues != 0 {
		t.Fatal("no spill expected at 64 registers")
	}
	if res.Cycles != int64(res.II)*500 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	if !strings.Contains(res.Kernel(), "row 0:") {
		t.Fatalf("kernel rendering missing:\n%s", res.Kernel())
	}
}

func TestParseLoopRejectsGarbage(t *testing.T) {
	if _, err := ParseLoop("not a loop"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestCompileSpillsWhenTight(t *testing.T) {
	l := PaperExample()
	res, err := Compile(l, ExampleMachine(), Unified, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues == 0 {
		t.Fatal("expected spilling at 32 unified registers")
	}
	if res.Registers > 32 {
		t.Fatalf("final requirement %d > 32", res.Registers)
	}
	dual, err := Compile(l, ExampleMachine(), Swapped, 32)
	if err != nil {
		t.Fatal(err)
	}
	if dual.SpilledValues != 0 {
		t.Fatal("swapped must fit in 32 without spilling")
	}
	if dual.Registers != 23 {
		t.Fatalf("swapped requirement = %d, want 23", dual.Registers)
	}
}

// TestCompileAllMatchesCompilePerKernel is the pipeline-equivalence
// gate: for every curated kernel at both paper latencies, CompileAll
// (one shared base stage) must produce results identical to four
// independent Compile calls (each re-running the whole pipeline).
func TestCompileAllMatchesCompilePerKernel(t *testing.T) {
	const regs = 32
	for _, lat := range []int{3, 6} {
		m := EvalMachine(lat)
		for _, name := range KernelNames() {
			l, err := KernelLoop(name)
			if err != nil {
				t.Fatal(err)
			}
			all, err := CompileAll(context.Background(), l, m, regs)
			if err != nil {
				t.Fatalf("%s lat=%d: CompileAll: %v", name, lat, err)
			}
			for _, model := range Models {
				one, err := Compile(l, m, model, regs)
				if err != nil {
					t.Fatalf("%s lat=%d %v: Compile: %v", name, lat, model, err)
				}
				got := all[model]
				if got.Model != one.Model || got.II != one.II ||
					got.Registers != one.Registers ||
					got.SpilledValues != one.SpilledValues ||
					got.MemOps != one.MemOps || got.Cycles != one.Cycles {
					t.Fatalf("%s lat=%d %v: CompileAll %+v != Compile %+v",
						name, lat, model, got, one)
				}
				if got.Kernel() != one.Kernel() {
					t.Fatalf("%s lat=%d %v: kernels differ", name, lat, model)
				}
			}
		}
	}
}

// TestCompileAllCancellation checks the context threads through every
// stage: a cancelled context aborts before any compilation work.
func TestCompileAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileAll(ctx, PaperExample(), ExampleMachine(), 16); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestInvalidModelReturnsError locks in the fix for the old facade
// panic: an out-of-range Model must surface as a descriptive error from
// every entry point that accepts one.
func TestInvalidModelReturnsError(t *testing.T) {
	l := PaperExample()
	m := ExampleMachine()
	for _, bad := range []Model{Model(-1), Model(NumModels), Model(99)} {
		if _, err := Compile(l, m, bad, 0); err == nil || !strings.Contains(err.Error(), "invalid model") {
			t.Fatalf("Compile(%d) err = %v, want invalid-model error", int(bad), err)
		}
		if err := Verify(l, m, bad, 0, 4); err == nil || !strings.Contains(err.Error(), "invalid model") {
			t.Fatalf("Verify(%d) err = %v, want invalid-model error", int(bad), err)
		}
		if got := bad.String(); !strings.Contains(got, "Model(") {
			t.Fatalf("String(%d) = %q", int(bad), got)
		}
	}
}

func TestKernelLoopLookup(t *testing.T) {
	names := KernelNames()
	if len(names) < 40 {
		t.Fatalf("only %d kernels", len(names))
	}
	l, err := KernelLoop("daxpy")
	if err != nil || l.Name() != "daxpy" {
		t.Fatalf("KernelLoop: %v", err)
	}
	if _, err := KernelLoop("missing"); err == nil {
		t.Fatal("want error for unknown kernel")
	}
}

func TestNewMachineValidation(t *testing.T) {
	m, err := NewMachine("custom", [][3]int{{1, 1, 1}, {1, 1, 1}}, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "custom") {
		t.Fatal("machine name lost")
	}
	if _, err := NewMachine("bad", nil, 3, 3, 1); err == nil {
		t.Fatal("want error for empty machine")
	}
}

func TestModelStrings(t *testing.T) {
	want := map[Model]string{Ideal: "ideal", Unified: "unified", Partitioned: "partitioned", Swapped: "swapped"}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestVerifyThroughFacade(t *testing.T) {
	l := PaperExample()
	m := ExampleMachine()
	for _, model := range []Model{Unified, Partitioned, Swapped} {
		if err := Verify(l, m, model, 0, 20); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
	}
	// With spilling.
	if err := Verify(l, m, Unified, 32, 20); err != nil {
		t.Fatalf("spilled verify: %v", err)
	}
}

// TestParseLoopEliminatesStackSpills runs the section 5.1 front end: a
// value the source spills to a stack slot and reloads is reconnected to
// its consumer, so the loop keeps its three real operations and verifies
// under every model.
func TestParseLoopEliminatesStackSpills(t *testing.T) {
	l, err := ParseLoop(`loop spilled trips 50
v1 = load x
S: store stack0, v1
R: v2 = load stack0
v4 = fadd v2, 1.0
store y, v4
`)
	if err != nil {
		t.Fatal(err)
	}
	if l.Ops() != 3 {
		t.Fatalf("ops = %d, want 3 after stack-spill elimination", l.Ops())
	}
	for _, model := range Models {
		if err := Verify(l, EvalMachine(6), model, 0, 16); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
	}
}

func TestLoopDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := PaperExample().DOT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Fatal("DOT output malformed")
	}
}

func TestRenderTable1KernelsOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(CorpusOptions{KernelsOnly: true}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "P1L3", "P2L6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderFiguresSmallCorpus(t *testing.T) {
	opts := CorpusOptions{Loops: 25, Seed: 42}
	var buf bytes.Buffer
	if err := RenderFig6(opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6 (latency 3)") ||
		!strings.Contains(buf.String(), "Figure 6 (latency 6)") {
		t.Fatalf("fig6 output incomplete:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderFig7(opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Fatal("fig7 missing")
	}
	buf.Reset()
	if err := RenderFig8And9(opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 8") || !strings.Contains(buf.String(), "Figure 9") {
		t.Fatal("fig8/9 missing")
	}
}
