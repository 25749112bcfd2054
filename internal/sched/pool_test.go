package sched

import (
	"slices"
	"testing"

	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

// fourClusters is experiment.EvalN(4, lat), which this package cannot
// import.
func fourClusters(lat int) *machine.Config {
	specs := make([]machine.ClusterSpec, 4)
	for i := range specs {
		specs[i] = machine.ClusterSpec{Adders: 1, Multipliers: 1, MemPorts: 1}
	}
	return machine.MustNew("eval4c-L6", specs, lat, lat, 1)
}

// TestRecMIIFloorMatchesRecMII pins the floor search Run starts its II
// search with: over the kernels and a synthetic corpus on both
// evaluation machines and a four-cluster one, for floors below, at and
// above RecMII, minII returns max(floor, RecMII). RecMII itself is
// checked against a linear scan for the first II without a positive
// cycle, so a floor search that skipped its cycle test could not hide
// behind a RecMII built on the same code. Both branches must be taken:
// floors the relaxation pass accepts outright and floors that leave a
// cycle for the binary search.
func TestRecMIIFloorMatchesRecMII(t *testing.T) {
	spec := loopgen.Defaults()
	spec.Loops = 400
	if testing.Short() {
		spec.Loops = 100
	}
	corpus := append(loops.Kernels(), loopgen.Generate(spec)...)
	accepted, searched := 0, 0
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6), fourClusters(6)} {
		for _, g := range corpus {
			res, err := ResMII(g, m)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			delay := make([]int, g.NumEdges())
			for i := range delay {
				delay[i] = EdgeDelay(g, m, g.Edge(i))
			}
			dist := make([]int, g.NumNodes())
			want := 1
			for hasPositiveCycle(g, delay, dist, want) {
				want++
			}
			rec := RecMII(g, m)
			if rec != want {
				t.Fatalf("%s on %s: RecMII = %d, linear scan %d", g.LoopName, m.Name(), rec, want)
			}
			st := newIMSState(g, m)
			for _, floor := range []int{1, res, max(rec-1, 1), rec, rec + 1, 1000} {
				if got := st.minII(floor); got != max(floor, rec) {
					t.Fatalf("%s on %s: minII(%d) = %d, want max(floor, RecMII %d)", g.LoopName, m.Name(), floor, got, rec)
				}
				if floor < rec {
					searched++
				} else {
					accepted++
				}
			}
			st.release()
		}
	}
	t.Logf("%d floors accepted by one relaxation pass, %d searched", accepted, searched)
	if accepted == 0 || searched == 0 {
		t.Fatalf("%d floors accepted, %d searched: want both paths covered", accepted, searched)
	}
}

// TestRunSchedulesDoNotAlias pins the pooled scheduler state's ownership
// rule: a returned Schedule owns its Start and FU arrays. Runs over
// mixed graphs and machines, with a failing Run and a failed attempt
// left in a released state between them, must leave every earlier
// schedule exactly as it was returned and still valid.
func TestRunSchedulesDoNotAlias(t *testing.T) {
	type kept struct {
		s         *Schedule
		start, fu []int
	}
	var all []kept
	check := func(after string) {
		t.Helper()
		for _, k := range all {
			if !slices.Equal(k.s.Start, k.start) || !slices.Equal(k.s.FU, k.fu) {
				t.Fatalf("after %s: the schedule of %s on %s changed", after, k.s.Graph.LoopName, k.s.Mach.Name())
			}
			if err := k.s.Verify(); err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
		}
	}
	noMul := machine.MustNew("no-mul", []machine.ClusterSpec{{Adders: 1, MemPorts: 1}}, 3, 3, 1)
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6), fourClusters(6), machine.Example()}
	ks := loops.Kernels()
	for i := 0; i < 3*len(ks); i++ {
		g, m := ks[(i*7)%len(ks)], machines[i%len(machines)]
		s, err := Run(g, m, Options{MinII: i % 5})
		if err != nil {
			t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
		}
		all = append(all, kept{s, slices.Clone(s.Start), slices.Clone(s.FU)})
		check(g.LoopName)
		switch i % 3 {
		case 0:
			mul := ddg.New("needs-mul", 1)
			mul.AddNode(ddg.FMUL, "M")
			if _, err := Run(mul, noMul, Options{}); err == nil {
				t.Fatal("Run on a machine without multipliers succeeded")
			}
			check("a failing Run")
		case 1:
			// An attempt below the loop's MII, on a budget of one
			// placement per node, leaves its placements in the state
			// that goes back to the pool.
			st := newIMSState(g, m)
			st.tryII(max(s.II/2, 1), 1)
			st.release()
			check("a failed attempt")
		}
	}
}
