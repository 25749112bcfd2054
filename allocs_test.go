//go:build !race

package ncdrf

import (
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
	for _, g := range ks {
		s, err := sched.Run(g, m, sched.Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.LoopName, err)
		}
		scheds = append(scheds, s)
		jobs = append(jobs, allocJob{lifetime.Compute(s), s.II})
	}
	spillG, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("kernel lfk7-eos missing")
	}
	row := pipeline.Row{Loop: "daxpy", Machine: "eval-L6", Model: "swapped",
		Regs: 32, II: 2, Stages: 5, Trips: 100, MemOps: 3}

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
		{"pipeline.EncodeRow", 0, func() error {
			return pipeline.EncodeRow(io.Discard, row)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var err error
			got := testing.AllocsPerRun(5, func() {
				if e := c.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f allocs/run (recorded %.0f)", got, c.want)
			if got > c.want*allocSlack {
				t.Errorf("%.0f allocs/run, more than %.0f%% above the recorded %.0f",
					got, (allocSlack-1)*100, c.want)
			}
		})
	}
}
