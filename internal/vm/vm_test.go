package vm

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/lir"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

func TestDeterministicValues(t *testing.T) {
	if loadValue("L1", 3) != loadValue("L1", 3) {
		t.Fatal("loadValue not deterministic")
	}
	if loadValue("L1", 3) == loadValue("L1", 4) {
		t.Fatal("loadValue ignores iteration")
	}
	if loadValue("L1", 3) == loadValue("L2", 3) {
		t.Fatal("loadValue ignores label")
	}
	for i := 0; i < 50; i++ {
		v := loadValue("x", i)
		if v < 1 || v >= 2 {
			t.Fatalf("loadValue out of [1,2): %v", v)
		}
	}
	if initValue("a", -1) == loadValue("a", -1) {
		t.Fatal("init and load namespaces must differ")
	}
}

func TestComputeSemantics(t *testing.T) {
	g := ddg.New("c", 1)
	add := g.Node(g.AddNode(ddg.FADD, "a"))
	sub := g.Node(g.AddNode(ddg.FSUB, "s"))
	mul := g.Node(g.AddNode(ddg.FMUL, "m"))
	div := g.Node(g.AddNode(ddg.FDIV, "d"))
	conv := g.Node(g.AddNode(ddg.CONV, "c1"))
	if compute(add, []float64{2, 3}) != 5 {
		t.Fatal("fadd")
	}
	if compute(sub, []float64{2, 3}) != -1 {
		t.Fatal("fsub")
	}
	if compute(mul, []float64{2, 3}) != 6 {
		t.Fatal("fmul")
	}
	if compute(div, []float64{3, 2}) != 1.5 {
		t.Fatal("fdiv")
	}
	if compute(conv, []float64{2.9}) != 2 {
		t.Fatal("conv")
	}
	// Missing operands are padded deterministically.
	v1 := compute(add, []float64{2})
	v2 := compute(add, []float64{2})
	if v1 != v2 {
		t.Fatal("pad not deterministic")
	}
}

func TestReferenceSimpleDataflow(t *testing.T) {
	g := lir.MustCompile(`
loop ref trips 4
x1 = load x
y1 = load y
s1 = fadd x1, y1
store out, s1
`)
	stream, err := RunReference(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != 4 {
		t.Fatalf("stores = %d, want 4", len(stream))
	}
	for it := 0; it < 4; it++ {
		want := loadValue("x1", it) + loadValue("y1", it)
		got := stream[StoreKey{Node: "st0", Iter: it}]
		if !sameValue(want, got) {
			t.Fatalf("iter %d: got %v want %v", it, got, want)
		}
	}
}

func TestReferenceRecurrence(t *testing.T) {
	g := lir.MustCompile(`
loop acc trips 3
x1 = load x
s1 = fadd s1@1, x1
store out, s1
`)
	stream, err := RunReference(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// s1(0) = init(s1,-1) + x(0); s1(i) = s1(i-1) + x(i).
	s := initValue("s1", -1) + loadValue("x1", 0)
	if !sameValue(stream[StoreKey{"st0", 0}], s) {
		t.Fatal("iteration 0 wrong")
	}
	for it := 1; it < 3; it++ {
		s += loadValue("x1", it)
		if !sameValue(stream[StoreKey{"st0", it}], s) {
			t.Fatalf("iteration %d wrong", it)
		}
	}
}

func TestPipelinedMatchesReferencePaperExample(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	want, err := RunReference(g, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []core.Model{core.Unified, core.Partitioned} {
		p, _ := buildProgram(t, g, m, model)
		got, err := Execute(p, 25)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if err := CompareStreams(want, got); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
	}
}

func TestVerifyModelAllKernels(t *testing.T) {
	// End-to-end validation: every curated kernel, both latencies, all
	// register-file models, unlimited registers. The schedules must
	// include the register file's write-before-read corner, a consumer
	// issued in exactly the cycle its producer's result lands, which
	// reads the fresh value.
	sameCycle := 0
	for _, lat := range []int{3, 6} {
		m := machine.Eval(lat)
		for _, g := range loops.Kernels() {
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range g.Edges() {
				if e.Kind == ddg.Flow && s.Start[e.To] == s.Start[e.From]+sched.EdgeDelay(g, m, e)-s.II*e.Distance {
					sameCycle++
				}
			}
			for _, model := range []core.Model{core.Unified, core.Partitioned, core.Swapped} {
				if err := VerifyModel(g, m, model, 0, 12); err != nil {
					t.Fatalf("%s lat=%d %v: %v", g.LoopName, lat, model, err)
				}
			}
		}
	}
	if sameCycle == 0 {
		t.Fatal("no kernel schedules a consumer at its producer's completion")
	}
}

// TestSwappedImageIsSwapRebalanced pins that a Swapped cell executes the
// schedule its requirement is measured on, swap-rebalanced: the image
// `ncdrf object -model swapped` prints, not the base schedule's.
func TestSwappedImageIsSwapRebalanced(t *testing.T) {
	m := machine.Eval(6)
	swapped := 0
	for _, g := range loops.Kernels() {
		b, err := pipeline.NewBase(g, m, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, steps := core.Swap(b.Sched, core.SwapOptions{})
		if steps == 0 {
			continue
		}
		swapped++
		rm, err := NewDualMap(s, b.Lifetimes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Generate(s, rm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := image(context.Background(), nil, g, m, core.Swapped, 0)
		if err != nil {
			t.Fatal(err)
		}
		if Format(got) != Format(want) {
			t.Fatalf("%s: executed image\n%s\nwant the swapped schedule's\n%s", g.LoopName, Format(got), Format(want))
		}
	}
	if swapped == 0 {
		t.Fatal("no kernel takes a swap step")
	}
}

func TestVerifyModelWithSpilling(t *testing.T) {
	// Tight register files force spilling; execution must stay correct.
	cases := []struct {
		kernel string
		regs   int
	}{
		{"lfk7-eos", 24},
		{"lfk9-integrate", 16},
		{"stencil5", 12},
		{"big-expression", 16},
	}
	m := machine.Eval(6)
	for _, tc := range cases {
		g, ok := loops.KernelByName(tc.kernel)
		if !ok {
			t.Fatalf("missing kernel %s", tc.kernel)
		}
		for _, model := range []core.Model{core.Unified, core.Partitioned, core.Swapped} {
			if err := VerifyModel(g, m, model, tc.regs, 15); err != nil {
				t.Fatalf("%s@%d %v: %v", tc.kernel, tc.regs, model, err)
			}
		}
	}
}

func TestVerifyPaperExampleAt32And23(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	// Unified at 32 spills; swapped at 23 fits exactly. Both must run
	// correctly.
	if err := VerifyModel(g, m, core.Unified, 32, 20); err != nil {
		t.Fatal(err)
	}
	if err := VerifyModel(g, m, core.Swapped, 23, 20); err != nil {
		t.Fatal(err)
	}
}

func TestClobberDetection(t *testing.T) {
	// Sabotage an allocation: give two overlapping values the same
	// specifier. The shadow check must catch the clobber.
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lts := lifetime.Compute(s)
	u, err := NewUnifiedMap(lts, s.II)
	if err != nil {
		t.Fatal(err)
	}
	l1 := g.NodeByName("L1").ID
	l2 := g.NodeByName("L2").ID
	u.alloc.Spec[l2] = u.alloc.Spec[l1] // L1 and L2 overlap in time
	p, err := Generate(s, u)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(p, 10)
	if err == nil {
		t.Fatal("clobbered allocation went undetected")
	}
	if !strings.Contains(err.Error(), "clobbered") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCrossClusterLocalReadDetection(t *testing.T) {
	// Sabotage a classification: mark a value consumed by cluster 1 as
	// local to cluster 0. The dual map must refuse the read.
	g := loops.PaperExample()
	m := machine.Example()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lts := lifetime.Compute(s)
	d, err := NewDualMap(s, lts)
	if err != nil {
		t.Fatal(err)
	}
	// A4 is consumed by M5 on cluster 1; force it local to cluster 0.
	a4 := g.NodeByName("A4").ID
	d.class.ByValue[a4] = core.Class(0)
	d.da.Local[0].Spec[a4] = 0
	if _, err = Generate(s, d); err == nil {
		t.Fatal("cross-cluster local read went undetected")
	}
}

func TestCompareStreamsErrors(t *testing.T) {
	a := StoreStream{{"s", 0}: 1.0}
	b := StoreStream{{"s", 0}: 2.0}
	if err := CompareStreams(a, b); err == nil {
		t.Fatal("value mismatch undetected")
	}
	c := StoreStream{{"t", 0}: 1.0}
	if err := CompareStreams(a, c); err == nil {
		t.Fatal("key mismatch undetected")
	}
	d := StoreStream{}
	if err := CompareStreams(a, d); err == nil {
		t.Fatal("size mismatch undetected")
	}
	if err := CompareStreams(a, StoreStream{{"s", 0}: 1.0}); err != nil {
		t.Fatal(err)
	}
}

func TestRunReferenceRejectsBadInput(t *testing.T) {
	g := loops.PaperExample()
	if _, err := RunReference(g, 0); err == nil {
		t.Fatal("iters=0 must fail")
	}
	if _, err := RunReference(ddg.New("empty", 1), 3); err == nil {
		t.Fatal("empty graph must fail")
	}
}

// Property: for random loops, the pipelined execution under every model
// is bit-identical to the sequential reference — the repository's
// strongest invariant.
func TestPropertyPipelineMatchesReference(t *testing.T) {
	ops := []ddg.OpCode{ddg.FADD, ddg.FSUB, ddg.FMUL, ddg.FDIV, ddg.LOAD, ddg.CONV, ddg.STORE}
	build := func(r *rand.Rand) *ddg.Graph {
		g := ddg.New("rand", 1)
		n := 4 + r.Intn(12)
		for i := 0; i < n; i++ {
			g.AddNode(ops[r.Intn(len(ops))], "")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 && g.Node(i).Op.ProducesValue() {
					g.Flow(i, j)
				}
			}
		}
		if r.Intn(3) == 0 {
			// A loop-carried self-recurrence on some arithmetic node.
			for _, nd := range g.Nodes() {
				if nd.Op != ddg.LOAD && nd.Op != ddg.STORE {
					g.FlowD(nd.ID, nd.ID, 1+r.Intn(2))
					break
				}
			}
		}
		return g
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := build(r)
		m := machine.Eval([]int{3, 6}[r.Intn(2)])
		model := []core.Model{core.Unified, core.Partitioned, core.Swapped}[r.Intn(3)]
		regs := 0
		if r.Intn(2) == 0 {
			regs = 12 + r.Intn(30) // tight enough to spill sometimes
		}
		if err := VerifyModel(g, m, model, regs, 8); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
