package core_test

import (
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/experiment"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// TestRequirementsMatchRequirement pins the one-call requirement pass
// to Requirement, model by model, over every machine shape the paper's
// exhibits and the cluster study measure. The cases must reach both of
// Requirements' shortcuts — single-cluster machines and multi-cluster
// schedules on which Swap takes no step — and the full path.
func TestRequirementsMatchRequirement(t *testing.T) {
	p := loopgen.Defaults()
	p.Loops = 200
	graphs := append(loops.Kernels(), loopgen.Generate(p)...)
	machines := append(machine.Table1Configs(), machine.Eval(3), machine.Eval(6),
		experiment.EvalN(1, 6), experiment.EvalN(4, 6))
	collapsed, unswapped, swapped := 0, 0, 0
	for _, m := range machines {
		for _, g := range graphs {
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			lts := lifetime.Compute(s)
			got, err := core.Requirements(s, lts)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			for _, model := range core.Models {
				want, _, err := core.Requirement(model, s, lts)
				if err != nil {
					t.Fatalf("%s on %s, %v: %v", g.LoopName, m.Name(), model, err)
				}
				if got[model] != want {
					t.Fatalf("%s on %s: Requirements[%v] = %d, Requirement = %d", g.LoopName, m.Name(), model, got[model], want)
				}
			}
			switch _, steps := core.Swap(s, core.SwapOptions{}); {
			case m.NumClusters() < 2:
				collapsed++
			case steps == 0:
				unswapped++
			default:
				swapped++
			}
		}
	}
	if collapsed == 0 || unswapped == 0 || swapped == 0 {
		t.Fatalf("cases: %d single-cluster, %d zero-step, %d swapped; every path must be reached", collapsed, unswapped, swapped)
	}
	t.Logf("cases: %d single-cluster, %d zero-step, %d swapped", collapsed, unswapped, swapped)
}
