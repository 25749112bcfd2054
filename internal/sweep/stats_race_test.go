package sweep

import (
	"context"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

// TestStageStatsDuringSweep pins the stage counters as race-free: pool
// workers bump them while stats consumers (the -progress reporter) read
// them mid-flight. Running a reader against a live sweep makes
// `go test -race` fail here if either side ever regresses to plain
// ints.
func TestStageStatsDuringSweep(t *testing.T) {
	eng := New(4)
	grid := Grid{
		Corpus:   loops.Kernels()[:6],
		Machines: []*machine.Config{machine.Eval(3)},
		Models:   []core.Model{core.Unified, core.Swapped},
		Regs:     []int{4, 8, 16, 32, 64, 128},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				eng.Cache().StageStats() // concurrent read of the stage counters
			}
		}
	}()

	var rows int
	err := eng.Sweep(context.Background(), grid, func(Result) { rows++ })
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	plan := len(grid.Plan())
	if rows != plan {
		t.Fatalf("emitted %d rows, plan has %d units", rows, plan)
	}
	if got := eng.Cache().StageStats().Eval.Requests(); got != uint64(plan) {
		t.Fatalf("eval stage saw %d requests, want one per plan unit (%d)", got, plan)
	}
}
