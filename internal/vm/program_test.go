package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
)

// buildProgram schedules g without a register limit and generates its
// kernel image under model.
func buildProgram(t *testing.T, g *ddg.Graph, m *machine.Config, model core.Model) (*Program, *sched.Schedule) {
	t.Helper()
	s, err := sched.Run(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewRegMap(model, s, lifetime.Compute(s))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(s, rm)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestGenerateShape(t *testing.T) {
	g := loops.PaperExample()
	p, s := buildProgram(t, g, machine.Example(), core.Partitioned)
	if p.II != 1 || p.Stages != 14 {
		t.Fatalf("II/stages = %d/%d", p.II, p.Stages)
	}
	if len(p.Rows) != s.II {
		t.Fatalf("rows = %d", len(p.Rows))
	}
	total := 0
	for _, row := range p.Rows {
		total += len(row)
	}
	if total != g.NumNodes() {
		t.Fatalf("instructions = %d, want %d", total, g.NumNodes())
	}
	// Encoded specifiers must be stage-adjusted: L1 has spec q and stage
	// 0, so Enc == spec; its consumer A6 at stage 10 must encode
	// q + 10 mod size.
	var l1, a6 Instruction
	for _, row := range p.Rows {
		for _, ins := range row {
			switch ins.Label {
			case "L1":
				l1 = ins
			case "A6":
				a6 = ins
			}
		}
	}
	if len(l1.Dests) == 0 || len(a6.Srcs) < 2 {
		t.Fatal("missing L1 dest or A6 srcs")
	}
	// Operand order: fadd v5, x -> src[0]=M5, src[1]=L1.
	src := a6.Srcs[1]
	if src.Producer != g.NodeByName("L1").ID {
		t.Fatalf("A6 operand order unexpected: %+v", a6.Srcs)
	}
	if want := (l1.Dests[0].Enc + 10) % src.Size; src.Enc != want {
		t.Fatalf("A6 src enc = %d, want %d (stage-adjusted)", src.Enc, want)
	}
	if l1.Latency != 1 || a6.Latency != 3 {
		t.Fatalf("latencies L1=%d A6=%d, want the example machine's 1 and 3", l1.Latency, a6.Latency)
	}
}

func TestExecuteRejectsBadTrips(t *testing.T) {
	p, _ := buildProgram(t, loops.PaperExample(), machine.Example(), core.Unified)
	for _, iters := range []int{0, -5} {
		if _, err := Execute(p, iters); err == nil || err.Error() != fmt.Sprintf("vm: iters = %d", iters) {
			t.Fatalf("iters=%d: err = %v", iters, err)
		}
	}
}

func TestFormatListing(t *testing.T) {
	p, _ := buildProgram(t, loops.PaperExample(), machine.Example(), core.Partitioned)
	out := Format(p)
	for _, want := range []string{"kernel", "p[", "brtop", "L1", "S7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

// TestExecuteMatchesReferencePaperExample runs the worked example's
// kernel image for trip counts around its stage count: runs shorter
// than the pipeline never reach the steady state and are prologue and
// epilogue passes only.
func TestExecuteMatchesReferencePaperExample(t *testing.T) {
	g := loops.PaperExample()
	for _, model := range []core.Model{core.Unified, core.Partitioned} {
		p, _ := buildProgram(t, g, machine.Example(), model)
		for _, iters := range []int{1, p.Stages - 1, p.Stages, p.Stages + 1, 30} {
			want, err := RunReference(g, iters)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Execute(p, iters)
			if err != nil {
				t.Fatalf("%v iters=%d: %v", model, iters, err)
			}
			if err := CompareStreams(want, got); err != nil {
				t.Fatalf("%v iters=%d: %v", model, iters, err)
			}
		}
	}
}

// TestExecuteAllKernelsTripleAgreement runs one schedule of every
// curated kernel under both register organizations: the unified image,
// the dual image and the sequential reference must agree.
func TestExecuteAllKernelsTripleAgreement(t *testing.T) {
	for _, lat := range []int{3, 6} {
		m := machine.Eval(lat)
		for _, g := range loops.Kernels() {
			want, err := RunReference(g, 10)
			if err != nil {
				t.Fatalf("%s: %v", g.LoopName, err)
			}
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lts := lifetime.Compute(s)
			for _, model := range []core.Model{core.Unified, core.Partitioned} {
				rm, err := NewRegMap(model, s, lts)
				if err != nil {
					t.Fatal(err)
				}
				p, err := Generate(s, rm)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Execute(p, 10)
				if err != nil {
					t.Fatalf("%s lat=%d %v: %v", g.LoopName, lat, model, err)
				}
				if err := CompareStreams(want, got); err != nil {
					t.Fatalf("%s lat=%d %v: %v", g.LoopName, lat, model, err)
				}
			}
		}
	}
}

// TestExecuteWithSpillCode executes a spilled schedule's image, built
// from the spill pass's own graph, against the original unspilled loop.
func TestExecuteWithSpillCode(t *testing.T) {
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("missing kernel")
	}
	res, err := spill.Run(g, machine.Eval(6), 24, core.Fit(core.Swapped), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues == 0 {
		t.Fatal("lfk7-eos at 24 registers must spill")
	}
	d, err := NewDualMap(res.Sched, res.Lifetimes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Generate(res.Sched, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(p, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunReference(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareStreams(want, got); err != nil {
		t.Fatal(err)
	}
}

// Property: the kernel image of a random loop, generated straight from
// its schedule under either organization, agrees with the reference.
func TestPropertyPredicatedAgreement(t *testing.T) {
	ops := []ddg.OpCode{ddg.FADD, ddg.FSUB, ddg.FMUL, ddg.LOAD, ddg.STORE}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ddg.New("rand", 1)
		n := 4 + r.Intn(10)
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
		m := machine.Eval([]int{3, 6}[r.Intn(2)])
		model := []core.Model{core.Unified, core.Partitioned}[r.Intn(2)]
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			return false
		}
		rm, err := NewRegMap(model, s, lifetime.Compute(s))
		if err != nil {
			return false
		}
		p, err := Generate(s, rm)
		if err != nil {
			return false
		}
		got, err := Execute(p, 7)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, err := RunReference(g, 7)
		if err != nil {
			return false
		}
		return CompareStreams(want, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
