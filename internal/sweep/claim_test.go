package sweep

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

// TestGroupClaimSharesWithEvaluate sweeps a corpus that lists one
// kernel twice — two groups claiming the same eval keys — while
// concurrent Engine.Evaluate calls request every one of those keys. The
// calls start once the first cell is served, so the claiming group has
// settled its slots and holds them until its rows are handed over:
// every call is a memory hit, and the stage counters equal those of a
// retaining engine driven the same way. The sweep still leaves no eval
// entry behind, and each call returns the row the sweep emitted.
func TestGroupClaimSharesWithEvaluate(t *testing.T) {
	k := loops.Kernels()[3]
	grid := Grid{
		Corpus:   []*ddg.Graph{k, loops.Kernels()[3]},
		Machines: []*machine.Config{machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{8, 16, 32, 64},
	}
	units := grid.Plan()
	ctx := context.Background()
	// evaluateAll requests every unit's key from concurrent callers,
	// twice over, and returns each unit's row.
	evaluateAll := func(eng *Engine) []Result {
		rows := make([]Result, 2*len(units))
		var wg sync.WaitGroup
		for i := range rows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				u := units[i%len(units)]
				rows[i] = rowFor(grid, u)
				res, err := eng.Cache().Evaluate(ctx, grid.Corpus[u.Loop], grid.Machines[u.Machine], sched.Options{}, u.Model, u.Regs)
				if err != nil {
					rows[i].Error = err.Error()
				} else {
					rows[i].Fill(res)
				}
			}()
		}
		wg.Wait()
		return rows
	}
	// onFirstDone runs evaluateAll from the first done call, blocking
	// that cell's group until the calls return.
	onFirstDone := func(eng *Engine, out *[]Result) func() {
		var once sync.Once
		return func() { once.Do(func() { *out = evaluateAll(eng) }) }
	}

	eng := New(4)
	var evaluated []Result
	var emitted []Result
	if err := eng.SweepUnits(ctx, grid, units, func(r Result) { emitted = append(emitted, r) }, onFirstDone(eng, &evaluated)); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(units) || len(evaluated) != 2*len(units) {
		t.Fatalf("emitted %d rows and evaluated %d, want %d and %d", len(emitted), len(evaluated), len(units), 2*len(units))
	}
	for i, r := range evaluated {
		if want := emitted[i%len(units)]; r != want {
			t.Fatalf("Evaluate of unit %d returned %+v, the sweep emitted %+v", i%len(units), r, want)
		}
	}
	if l := eng.Cache().Lens(); l.Eval != 0 {
		t.Fatalf("%d eval entries left after the sweep, want 0", l.Eval)
	}

	retaining := New(4)
	var retained []Result
	if err := retaining.sweepUnitsRetaining(ctx, grid, units, onFirstDone(retaining, &retained)); err != nil {
		t.Fatal(err)
	}
	got, want := eng.Cache().StageStats(), retaining.Cache().StageStats()
	if got != want {
		t.Fatalf("stage counters differ from a retaining engine:\n got %+v\nwant %+v", got, want)
	}
	if n := uint64(len(units) + len(evaluated)); got.Eval.Requests() != n {
		t.Fatalf("%d eval requests, want %d: one per cell and one per Evaluate call", got.Eval.Requests(), n)
	}
}

// TestGroupClaimPanicSettlesEverySlot mirrors
// TestFlightPanicDoesNotDeadlock for a group claim: a compute that
// panics must settle every slot the claim owns with a real error, so
// waiters that joined before the panic and callers that come after it
// never block, and the panic is re-raised on the claiming goroutine.
func TestGroupClaimPanicSettlesEverySlot(t *testing.T) {
	f := newFlight[string, int](nil) // retain-all, like the schedule stage
	keys := []string{"a", "b", "a", "c"}
	cl, err := f.claimAll(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false, true}; !slices.Equal(cl.owned, want) {
		t.Fatalf("owned = %v, want %v", cl.owned, want)
	}

	// Concurrent waiters join the claimed slots before the panic.
	waited := make(chan error, 3)
	for _, key := range []string{"a", "b", "c"} {
		go func() {
			_, err := f.do(context.Background(), key, func() (int, error) {
				t.Error("waiter recomputed a claimed key")
				return 0, nil
			})
			waited <- err
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the waiters enter their wait

	recovered := func() (r any) {
		defer func() { r = recover() }()
		f.run(cl, func() { panic("boom") })
		return nil
	}()
	if recovered == nil {
		t.Fatal("panic was swallowed instead of re-raised")
	}
	for range 3 {
		select {
		case err := <-waited:
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("waiter error = %v, want panic-derived error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter deadlocked on a panicked claim")
		}
	}
	// A later claim shares the retained failures instead of blocking.
	later, err := f.claimAll(context.Background(), []string{"c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	f.run(later, func() { later.set(1, 4, nil) })
	if _, err, _ := f.wait(context.Background(), "c", later.slots[0]); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("later claim error = %v, want the retained panic error", err)
	}
	if f.misses.Load() != 4 {
		t.Fatalf("%d misses, want one per distinct claimed key", f.misses.Load())
	}
}

// TestGroupClaimWaiterRetriesDroppedSlot: a claim whose compute fails
// with a caller-dependent error drops those slots, and a waiter that
// joined one of them retries with its own live context, computing the
// value itself, while a slot that failed deterministically is shared.
func TestGroupClaimWaiterRetriesDroppedSlot(t *testing.T) {
	f := newFlight[string, int](retainDeterministic)
	cl, err := f.claimAll(context.Background(), []string{"cancelled", "failed"})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		v   int
		err error
	}
	got := make(chan outcome, 2)
	for _, key := range []string{"cancelled", "failed"} {
		go func() {
			v, err := f.do(context.Background(), key, func() (int, error) { return 42, nil })
			got <- outcome{v, err}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the waiters enter their wait
	deterministic := errors.New("deterministic")
	f.run(cl, func() {
		cl.set(0, 0, context.Canceled)
		cl.set(1, 0, deterministic)
	})
	var retried, shared int
	for range 2 {
		select {
		case o := <-got:
			switch {
			case o.err == nil && o.v == 42:
				retried++
			case o.err == deterministic:
				shared++
			default:
				t.Fatalf("waiter got %d, %v", o.v, o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter deadlocked on a settled claim")
		}
	}
	if retried != 1 || shared != 1 {
		t.Fatalf("%d waiters retried and %d shared the failure, want one each", retried, shared)
	}
	if n := f.len(); n != 2 {
		t.Fatalf("%d entries, want the recomputed and the retained one", n)
	}
}

// cancelAfterClaim is a context that reports itself live exactly once
// — to the claim — and cancelled from the next check on, so a group is
// cancelled deterministically between its claim and its walk.
type cancelAfterClaim struct {
	context.Context
	cancel context.CancelFunc
	checks atomic.Int32
}

func (c *cancelAfterClaim) Err() error {
	if c.checks.Add(1) > 1 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestGroupClaimCancelledLeavesNoSlot cancels a group after its claim:
// the cancellation is the group's error, every slot it claimed is
// dropped rather than retained, and a later request for any of its
// keys neither blocks nor sees the cancellation.
func TestGroupClaimCancelledLeavesNoSlot(t *testing.T) {
	c := NewCache()
	g, m := loops.Kernels()[0], machine.Eval(6)
	b, err := c.Base(context.Background(), g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cells []pipeline.Cell
	for _, model := range core.Models {
		for _, regs := range []int{8, 16, 64} {
			cells = append(cells, pipeline.Cell{Model: model, Regs: regs})
		}
	}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &cancelAfterClaim{Context: inner, cancel: cancel}
	served := 0
	created, err := c.evalCells(ctx, b, cells, func(_ *pipeline.ModelResult, err error) error {
		if errors.Is(err, context.Canceled) {
			return err // as groupCells does: the group's error, not the cell's
		}
		served++
		return nil
	})
	if !errors.Is(err, context.Canceled) || served != 0 {
		t.Fatalf("evalCells cancelled after its claim: %v with %d cells served, want the cancellation and none", err, served)
	}
	if len(created) == 0 {
		t.Fatal("the cancelled group claimed nothing; the test needs claimed slots")
	}
	if l := c.Lens(); l.Eval != 0 {
		t.Fatalf("%d eval entries after a cancelled group, want 0", l.Eval)
	}

	fresh := NewCache()
	for _, cell := range cells {
		done := make(chan struct{})
		var gotErr error
		go func() {
			defer close(done)
			res, err := c.Evaluate(context.Background(), g, m, sched.Options{}, cell.Model, cell.Regs)
			if err != nil {
				gotErr = err
				return
			}
			want, err := fresh.Evaluate(context.Background(), g, m, sched.Options{}, cell.Model, cell.Regs)
			if err != nil {
				gotErr = err
				return
			}
			if res.Sched.II != want.Sched.II || res.SpilledValues != want.SpilledValues || res.Iterations != want.Iterations {
				gotErr = errors.New("result differs from a fresh cache's")
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%v/%d: a later request blocked on the cancelled group's slot", cell.Model, cell.Regs)
		}
		if gotErr != nil {
			t.Fatalf("%v/%d after the cancelled group: %v", cell.Model, cell.Regs, gotErr)
		}
	}
}
