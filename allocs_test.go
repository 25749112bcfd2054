//go:build !race

package ncdrf

import (
	"bytes"
	"context"
	"io"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
	"ncdrf/internal/sweep"
)

// allocSlack is how far above its recorded count a hot path may
// allocate before the test fails: 20%, enough for runtime drift between
// Go releases, far below what a lost pool or arena costs.
const allocSlack = 1.2

// TestHotPathAllocs pins the heap allocations per run of the pipeline's
// hot paths over the curated kernels on the latency-6 evaluation
// machine. Allocation counts, unlike timings, are exact and independent
// of the host, so they catch an arena or pool that stopped being reused
// on any machine. Each want is the count recorded when the case was
// last measured; the test logs the live count. The file is excluded
// under -race: the race detector makes sync.Pool drop items at random,
// so the pooled arenas allocate more, and nondeterministically.
func TestHotPathAllocs(t *testing.T) {
	ks := loops.Kernels()
	m := machine.Eval(6)
	type allocJob struct {
		lts []lifetime.Lifetime
		ii  int
	}
	var scheds []*sched.Schedule
	var jobs []allocJob
	var artifacts, records [][]byte
	for _, g := range ks {
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.LoopName, err)
		}
		scheds = append(scheds, s)
		jobs = append(jobs, allocJob{lifetime.Compute(s), s.II})
		var art bytes.Buffer
		if err := pipeline.EncodeSchedule(&art, s); err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, art.Bytes())
		// A group record as `ncdrf all` writes one: the requirement row
		// and the Figure 8/9 cells.
		rec := pipeline.Record{Req: pipeline.Requirement{II: s.II}}
		for _, model := range core.Models {
			for _, regs := range []int{32, 64} {
				rec.Put(pipeline.Cell{Model: model, Regs: regs}, false, pipeline.Metrics{II: int32(s.II), Rounds: 1})
			}
		}
		records = append(records, pipeline.AppendRecord(nil, &rec))
	}
	spillG, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("kernel lfk7-eos missing")
	}
	row := pipeline.Row{Loop: "daxpy", Machine: "eval-L6", Model: "swapped",
		Regs: 32, II: 2, Stages: 5, Trips: 100, MemOps: 3}
	// The fit-curve axis, 56:256:8, and its two ends: a sweep's group
	// walk allocates per group and per spill round, never per cell.
	var dense []int
	for regs := 56; regs <= 256; regs += 8 {
		dense = append(dense, regs)
	}
	curve := func(regs []int) func() error {
		grid := sweep.Grid{Corpus: ks, Machines: []*machine.Config{m}, Models: core.Models[:], Regs: regs}
		return func() error {
			return sweep.New(1).Sweep(context.Background(), grid, func(sweep.Result) {})
		}
	}
	// The same grids as the encoded row stream `ncdrf curve -ndjson`
	// writes.
	stream := func(regs []int) func() error {
		grid := sweep.Grid{Corpus: ks, Machines: []*machine.Config{m}, Models: core.Models[:], Regs: regs}
		units := grid.Plan()
		return func() error {
			return sweep.New(1).SweepUnits(context.Background(), grid, units, func([]byte, int) {}, nil)
		}
	}

	cases := []struct {
		name string
		want float64
		run  func() error
	}{
		{"sched.Run/kernels", 331, func() error {
			for _, g := range ks {
				if _, err := sched.Run(g, m, sched.Options{}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"regalloc.FirstFit/kernels", 196, func() error {
			for _, j := range jobs {
				if _, err := regalloc.FirstFit(j.lts, j.ii); err != nil {
					return err
				}
			}
			return nil
		}},
		{"core.Swap/kernels", 523, func() error {
			for _, s := range scheds {
				core.Swap(s, core.SwapOptions{})
			}
			return nil
		}},
		{"core.Requirements/kernels", 959, func() error {
			for i, s := range scheds {
				if _, err := core.Requirements(s, jobs[i].lts); err != nil {
					return err
				}
			}
			return nil
		}},
		{"spill.Run/lfk7-eos-24-unified", 462, func() error {
			_, err := spill.Run(spillG, m, 24, core.Fit(core.Unified), sched.Options{})
			return err
		}},
		{"pipeline.DecodeSchedule/kernels", 701, func() error {
			for _, art := range artifacts {
				if _, err := pipeline.DecodeSchedule(bytes.NewReader(art), m); err != nil {
					return err
				}
			}
			return nil
		}},
		{"pipeline.DecodeRecord/kernels", 44, func() error {
			for _, rec := range records {
				if _, err := pipeline.DecodeRecord(rec); err != nil {
					return err
				}
			}
			return nil
		}},
		{"pipeline.EncodeRow", 0, func() error {
			return pipeline.EncodeRow(io.Discard, row)
		}},
		{"sweep.Sweep/kernels-26-budgets", 1965, curve(dense)},
		{"sweep.SweepUnits/kernels-26-budgets", 2139, stream(dense)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := allocsPerRun(t, c.run)
			t.Logf("%.0f allocs/run (recorded %.0f)", got, c.want)
			if got > c.want*allocSlack {
				t.Errorf("%.0f allocs/run, more than %.0f%% above the recorded %.0f",
					got, (allocSlack-1)*100, c.want)
			}
		})
	}
	for _, c := range []struct {
		name string
		run  func([]int) func() error
	}{{"sweep.Sweep/per-cell", curve}, {"sweep.SweepUnits/per-cell", stream}} {
		t.Run(c.name, func(t *testing.T) {
			got, ends := allocsPerRun(t, c.run(dense)), allocsPerRun(t, c.run([]int{dense[0], dense[len(dense)-1]}))
			t.Logf("%.0f allocs/run at 26 budgets, %.0f at 2", got, ends)
			if got > 1.05*ends {
				t.Errorf("sweeping 26 budgets allocates %.0f, %.1f× the %.0f of 2 budgets: a per-cell allocation",
					got, got/ends, ends)
			}
		})
	}
}

// allocsPerRun returns run's average heap allocations over 5 runs.
func allocsPerRun(t *testing.T, run func() error) float64 {
	t.Helper()
	var err error
	got := testing.AllocsPerRun(5, func() {
		if e := run(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}
