package pipeline

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
)

// TestEvaluateMatchesMonolithicPath checks stage-for-stage equivalence
// with the pre-staged pipeline: spill.Run from scratch followed by a
// requirement measurement must agree with Evaluate over a shared Base,
// for every model and a spread of register budgets.
func TestEvaluateMatchesMonolithicPath(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	b, err := NewBase(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range core.Models {
		for _, regs := range []int{0, 64, 32, 23, 16} {
			mono, err := spill.Run(g, m, regs, core.Fit(model), sched.Options{})
			if err != nil {
				t.Fatalf("%v/%d: %v", model, regs, err)
			}
			monoReq, monoFinal := 0, mono.Sched
			if model != core.Ideal {
				monoReq, monoFinal, err = core.Requirement(model, mono.Sched, lifetime.Compute(mono.Sched))
				if err != nil {
					t.Fatalf("%v/%d: %v", model, regs, err)
				}
			}
			staged, err := Evaluate(context.Background(), nil, b, model, regs)
			if err != nil {
				t.Fatalf("%v/%d: %v", model, regs, err)
			}
			stagedReq, stagedFinal, err := staged.Requirement()
			if err != nil {
				t.Fatalf("%v/%d: %v", model, regs, err)
			}
			if stagedReq != monoReq || stagedFinal.II != monoFinal.II ||
				staged.SpilledValues != mono.SpilledValues ||
				staged.IIBumps != mono.IIBumps ||
				staged.MemOps() != mono.MemOps() {
				t.Fatalf("%v/%d: staged (req=%d II=%d spilled=%d) != monolithic (req=%d II=%d spilled=%d)",
					model, regs, stagedReq, stagedFinal.II, staged.SpilledValues,
					monoReq, monoFinal.II, mono.SpilledValues)
			}
		}
	}
}

// TestBaseIsImmutable asserts the artifact ownership rule: evaluating
// models — including ones that spill and swap — must leave the shared
// Base (graph, schedule, lifetimes) bit-identical.
func TestBaseIsImmutable(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	b, err := NewBase(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := g.Encode(&before); err != nil {
		t.Fatal(err)
	}
	startBefore := append([]int(nil), b.Sched.Start...)
	fuBefore := append([]int(nil), b.Sched.FU...)
	ltsBefore := append([]lifetime.Lifetime(nil), b.Lifetimes...)

	if _, err := EvaluateAll(context.Background(), nil, b, 16); err != nil {
		t.Fatal(err)
	}

	var after bytes.Buffer
	if err := g.Encode(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatal("evaluation mutated the base graph")
	}
	for i := range startBefore {
		if b.Sched.Start[i] != startBefore[i] || b.Sched.FU[i] != fuBefore[i] {
			t.Fatal("evaluation mutated the base schedule")
		}
	}
	for i := range ltsBefore {
		if b.Lifetimes[i] != ltsBefore[i] {
			t.Fatal("evaluation mutated the base lifetimes")
		}
	}
}

// TestEvaluateAllSharesBaseSchedule checks that evaluating all four
// models over one base re-enters the scheduler only for post-spill
// rounds — never for the base schedule the models share.
func TestEvaluateAllSharesBaseSchedule(t *testing.T) {
	g := loops.PaperExample()
	m := machine.Example()
	counter := &countingScheduler{}
	b, err := NewBaseWith(counter, g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if counter.calls != 1 {
		t.Fatalf("base stage made %d scheduler calls, want 1", counter.calls)
	}
	// 64 registers: every model fits the base schedule, so the four
	// evaluations must not schedule anything.
	if _, err := EvaluateAll(context.Background(), counter, b, 64); err != nil {
		t.Fatal(err)
	}
	if counter.calls != 1 {
		t.Fatalf("no-spill EvaluateAll grew scheduler calls to %d, want still 1", counter.calls)
	}
	// 32 registers: only Unified (needs 42) spills; the scheduler runs
	// for its respill rounds only.
	if _, err := EvaluateAll(context.Background(), counter, b, 32); err != nil {
		t.Fatal(err)
	}
	if counter.calls < 2 {
		t.Fatal("spilling evaluation should re-enter the scheduler")
	}
}

type countingScheduler struct{ calls int }

func (c *countingScheduler) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	c.calls++
	return sched.Run(g, m, opts)
}

// TestCompileAllCancellation checks context threading through the
// stages: a cancelled context aborts CompileAll with ctx's error.
func TestCompileAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileAll(ctx, nil, loops.PaperExample(), machine.Example(), 16)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluateCancellation checks the per-model stage chain honours the
// context between spill rounds.
func TestEvaluateCancellation(t *testing.T) {
	b, err := NewBase(loops.PaperExample(), machine.Example(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, nil, b, core.Unified, 16); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
