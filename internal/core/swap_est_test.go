package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// swapCase is one schedule the swap tests descend from.
type swapCase struct {
	name string
	s    *sched.Schedule
}

// swapCases schedules the kernels plus a loopgen corpus of the given
// size on Eval(3), Eval(6) and the four-cluster latency-6 machine
// (experiment.EvalN(4, 6)), and adds random schedules.
func swapCases(t *testing.T, corpusLoops, random int) []swapCase {
	t.Helper()
	p := loopgen.Defaults()
	p.Loops = corpusLoops
	graphs := append(loops.Kernels(), loopgen.Generate(p)...)
	quad := make([]machine.ClusterSpec, 4)
	for i := range quad {
		quad[i] = machine.ClusterSpec{Adders: 1, Multipliers: 1, MemPorts: 1}
	}
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6), machine.MustNew("eval4c-L6", quad, 6, 6, 1)}
	var cases []swapCase
	for _, m := range machines {
		for _, g := range graphs {
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			cases = append(cases, swapCase{g.LoopName + "/" + m.Name(), s})
		}
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < random; i++ {
		s, _ := randomSchedule(t, r)
		cases = append(cases, swapCase{fmt.Sprintf("random%d", i), s})
	}
	return cases
}

// TestSwapDescentMatchesReference pins the incremental descent to the
// reference greedy loop (swap_ref_test.go): for every case and step
// bound, Swap's units and step count equal the reference's, and along
// the descent Swap takes, the estimate before each step and every
// probe's estimate equal Classify(...).MaxLiveEstimate() of the
// schedule probed, with each probe leaving the state as it found it.
func TestSwapDescentMatchesReference(t *testing.T) {
	corpus := 300
	if testing.Short() {
		corpus = 60
	}
	probes := 0
	for _, c := range swapCases(t, corpus, 60) {
		for _, maxSteps := range []int{1, 2, 0} {
			opts := SwapOptions{MaxSteps: maxSteps}
			got, gotSteps := Swap(c.s, opts)
			want, wantSteps := refSwap(c.s, opts)
			if gotSteps != wantSteps || !slices.Equal(got.FU, want.FU) {
				t.Fatalf("%s, MaxSteps %d: Swap took %d steps to %v, reference %d steps to %v",
					c.name, maxSteps, gotSteps, got.FU, wantSteps, want.FU)
			}
		}
		probes += checkDescentEstimates(t, c)
	}
	t.Logf("%d probes checked", probes)
}

// checkDescentEstimates walks the descent Swap takes on c, checking
// each estimate against Classify; it returns the number of probes.
func checkDescentEstimates(t *testing.T, c swapCase) int {
	t.Helper()
	if c.s.Mach.NumClusters() < 2 {
		return 0
	}
	cur := &sched.Schedule{Graph: c.s.Graph, Mach: c.s.Mach, II: c.s.II,
		Start: c.s.Start, FU: slices.Clone(c.s.FU)}
	lts := lifetime.Compute(cur)
	d := newSwapDescent(cur, lts)
	probed := &sched.Schedule{Graph: cur.Graph, Mach: cur.Mach, II: cur.II, Start: cur.Start}
	probes := 0
	for step := 0; step < 4*c.s.Graph.NumNodes(); step++ {
		est := d.estimate()
		if want := Classify(cur, lts).MaxLiveEstimate(); est != want {
			t.Fatalf("%s, step %d: estimate %d, Classify %d", c.name, step, est, want)
		}
		for _, p := range d.pairs {
			a, b := int(p.a), int(p.b)
			if cur.Cluster(a) == cur.Cluster(b) {
				continue
			}
			probed.FU = append(probed.FU[:0], cur.FU...)
			probed.FU[a], probed.FU[b] = probed.FU[b], probed.FU[a]
			if got, want := d.probe(a, b), Classify(probed, lts).MaxLiveEstimate(); got != want {
				t.Fatalf("%s, step %d: probe (%d, %d) estimate %d, Classify %d", c.name, step, a, b, got, want)
			}
			if after := d.estimate(); after != est {
				t.Fatalf("%s, step %d: probe (%d, %d) left estimate %d, was %d", c.name, step, a, b, after, est)
			}
			probes++
		}
		a, b := d.best()
		if a < 0 {
			break
		}
		d.swap(a, b)
	}
	return probes
}

// TestSwapAllocationFree pins that one Swap call allocates a fixed set
// of buffers — the result schedule, the lifetimes and the descent's
// state — however many candidates it probes over however many steps:
// every descent with candidates and values allocates the same number of
// times, so an allocation per step or per probe would show up as a
// count that varies across the cases.
func TestSwapAllocationFree(t *testing.T) {
	counts := map[float64]string{}
	maxSteps, maxPairs := 0, 0
	for _, c := range swapCases(t, 40, 20) {
		lts := lifetime.Compute(c.s)
		pairs := len(newSwapDescent(c.s, lts).pairs)
		if c.s.Mach.NumClusters() < 2 || pairs == 0 || len(lts) == 0 {
			continue
		}
		_, steps := Swap(c.s, SwapOptions{})
		allocs := testing.AllocsPerRun(3, func() { Swap(c.s, SwapOptions{}) })
		counts[allocs] = fmt.Sprintf("%s (%d candidates, %d steps)", c.name, pairs, steps)
		maxSteps, maxPairs = max(maxSteps, steps), max(maxPairs, pairs)
	}
	if len(counts) != 1 {
		t.Fatalf("Swap's allocations vary with the descent: %v", counts)
	}
	if maxSteps < 2 || maxPairs < 2 {
		t.Fatalf("largest descent: %d steps, %d candidates; the cases no longer vary the work", maxSteps, maxPairs)
	}
	t.Logf("allocations per Swap: %v, over up to %d steps and %d candidates", counts, maxSteps, maxPairs)
}
