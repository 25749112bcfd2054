package core

import (
	"ncdrf/internal/lifetime"
	"ncdrf/internal/sched"
)

// The greedy swap pass as it stood before the incremental descent, kept
// verbatim as the executable reference Swap is tested against: every
// step re-enumerates the candidate pairs, and every candidate re-classifies
// every value and rebuilds every live profile.

// refSwap is the reference Swap.
func refSwap(s *sched.Schedule, opts SwapOptions) (*sched.Schedule, int) {
	out := &sched.Schedule{
		Graph: s.Graph,
		Mach:  s.Mach,
		II:    s.II,
		Start: append([]int(nil), s.Start...),
		FU:    append([]int(nil), s.FU...),
	}
	if s.Mach.NumClusters() < 2 {
		return out, 0
	}
	lts := lifetime.Compute(out)
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4 * s.Graph.NumNodes()
	}

	// One estimator serves every candidate evaluation of every step:
	// the greedy loop classifies O(steps x candidates) times, and a
	// fresh Classification (two maps plus per-class slices) per
	// candidate made that the pass's allocation hot spot.
	est := newSwapEstimator(s.Mach.NumClusters())
	steps := 0
	for ; steps < maxSteps; steps++ {
		cur := est.estimate(out, lts)
		bestGain, bestA, bestB := 0, -1, -1
		for _, pair := range swapPairs(out) {
			a, b := pair[0], pair[1]
			out.FU[a], out.FU[b] = out.FU[b], out.FU[a]
			e := est.estimate(out, lts)
			out.FU[a], out.FU[b] = out.FU[b], out.FU[a]
			if gain := cur - e; gain > bestGain {
				bestGain, bestA, bestB = gain, a, b
			}
		}
		if bestGain <= 0 {
			break
		}
		out.FU[bestA], out.FU[bestB] = out.FU[bestB], out.FU[bestA]
	}
	return out, steps
}

// swapEstimator computes Classify(s, lts).MaxLiveEstimate() without
// building a Classification: the per-class lifetime partitions and the
// live profiles live in buffers owned by the estimator and reused
// across calls, so a candidate evaluation allocates nothing after
// warmup.
type swapEstimator struct {
	global []lifetime.Lifetime
	local  [][]lifetime.Lifetime
	gprof  []int
	lprof  []int
}

func newSwapEstimator(clusters int) *swapEstimator {
	return &swapEstimator{local: make([][]lifetime.Lifetime, clusters)}
}

// estimate partitions the lifetimes by storage class under the
// schedule's current cluster assignment and returns the MaxLive-based
// register-requirement estimate (see Classification.MaxLiveEstimate).
func (e *swapEstimator) estimate(s *sched.Schedule, lts []lifetime.Lifetime) int {
	e.global = e.global[:0]
	for i := range e.local {
		e.local[i] = e.local[i][:0]
	}
	for _, l := range lts {
		class := classOf(s, l.Node)
		if class == Global {
			e.global = append(e.global, l)
		} else {
			e.local[int(class)] = append(e.local[int(class)], l)
		}
	}
	e.gprof = lifetime.LiveProfile(e.global, s.II, e.gprof)
	worst := 0
	for cluster := range e.local {
		e.lprof = lifetime.LiveProfile(e.local[cluster], s.II, e.lprof)
		for t, g := range e.gprof {
			if v := g + e.lprof[t]; v > worst {
				worst = v
			}
		}
	}
	return worst
}

// swapPairs enumerates candidate pairs: same kernel row, same unit kind,
// different clusters.
func swapPairs(s *sched.Schedule) [][2]int {
	n := s.Graph.NumNodes()
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if s.Slot(a) != s.Slot(b) {
				continue
			}
			if s.Graph.Node(a).Op.FUKind() != s.Graph.Node(b).Op.FUKind() {
				continue
			}
			if s.Cluster(a) == s.Cluster(b) {
				continue
			}
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}
