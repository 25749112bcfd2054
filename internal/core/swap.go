package core

import (
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// SwapOptions tunes the greedy swap pass.
type SwapOptions struct {
	// MaxSteps bounds the number of greedy steps; 0 means 4*NumNodes.
	MaxSteps int
}

// Swap applies the paper's greedy post-scheduling swap algorithm
// (section 5.2): among all pairs of operations scheduled in the same
// kernel cycle on the same kind of functional unit in different clusters,
// repeatedly swap the pair that most reduces the MaxLive-based
// register-requirement estimate, until no pair improves it. Pairs are
// probed in (a, b) order and the first best gain wins.
//
// The input schedule is not modified; the returned schedule shares the
// graph and machine but has fresh Start/FU slices. The second result is
// the number of swaps applied.
func Swap(s *sched.Schedule, opts SwapOptions) (*sched.Schedule, int) {
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
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4 * s.Graph.NumNodes()
	}
	d := newSwapDescent(out, lifetime.Compute(out))
	steps := 0
	for ; steps < maxSteps; steps++ {
		a, b := d.best()
		if a < 0 {
			break
		}
		d.swap(a, b)
	}
	return out, steps
}

// swapDescent is the incremental state of one greedy swap pass: each
// value's current class and the live profile of every class, so that a
// candidate swap is estimated by re-classifying only the values whose
// class it can change. A value's class depends only on the clusters of
// its flow consumers, or on its producer's cluster when it has none, so
// swapping a and b can change the classes of a's and b's own values and
// of the producers of their flow inputs, and nothing else. Moving those
// values between profiles keeps every profile equal to the LiveProfile
// of its class's lifetimes, so each estimate equals
// Classify(s, lts).MaxLiveEstimate() (TestSwapDescentMatchesReference).
type swapDescent struct {
	s     *sched.Schedule // FU follows every swap, probes included
	value []int32         // per node: index of its value in vals, or -1
	vals  []swapValue     // per lifetime
	// The live profile of class k — index 0 is Global, 1+c cluster c —
	// is base[k] instances at every kernel cycle plus win[k*II+t] more
	// at cycle t.
	base []int
	win  []int
	// pairs lists every candidate a < b in the reference's order: same
	// kernel row, same unit kind. A swap changes neither, so the list is
	// built once; whether a and b sit in different clusters is checked
	// at each probe.
	pairs []swapPair
	moved []swapMove // the current swap's re-classified values
}

type swapPair struct{ a, b int32 }

// swapValue is a value's current class and its lifetime's share of a
// live profile, lifetime.Window(l, II).
type swapValue struct {
	class   Class
	a, w, b int
}

// swapMove records a value's class before a swap re-classified it.
type swapMove struct {
	v    int32
	from Class
}

func newSwapDescent(s *sched.Schedule, lts []lifetime.Lifetime) *swapDescent {
	n, clusters := s.Graph.NumNodes(), s.Mach.NumClusters()
	d := &swapDescent{
		s:     s,
		value: make([]int32, n),
		vals:  make([]swapValue, len(lts)),
		base:  make([]int, clusters+1),
		win:   make([]int, (clusters+1)*s.II),
		moved: make([]swapMove, 0, len(lts)),
	}
	for i := range d.value {
		d.value[i] = -1
	}
	for v, l := range lts {
		a, w, b := lifetime.Window(l, s.II)
		d.value[l.Node], d.vals[v] = int32(v), swapValue{classOf(s, l.Node), a, w, b}
		d.add(v, d.vals[v].class, 1)
	}
	// Two nodes are candidates when they share a kernel row and a unit
	// kind, that is a key; count the pairs first so the list is sized
	// once.
	key := make([]int, n)
	for i := range key {
		key[i] = s.Slot(i)*len(machine.Kinds) + int(s.Graph.Node(i).Op.FUKind())
	}
	count := 0
	for a := range key {
		for b := a + 1; b < n; b++ {
			if key[a] == key[b] {
				count++
			}
		}
	}
	d.pairs = make([]swapPair, 0, count)
	for a := range key {
		for b := a + 1; b < n; b++ {
			if key[a] == key[b] {
				d.pairs = append(d.pairs, swapPair{int32(a), int32(b)})
			}
		}
	}
	return d
}

// best returns the pair whose swap lowers the estimate the most, the
// first in pair order on ties, or (-1, -1) when no swap lowers it.
func (d *swapDescent) best() (int, int) {
	cur := d.estimate()
	bestGain, bestA, bestB := 0, -1, -1
	for _, p := range d.pairs {
		a, b := int(p.a), int(p.b)
		if d.s.Cluster(a) == d.s.Cluster(b) {
			continue
		}
		if gain := cur - d.probe(a, b); gain > bestGain {
			bestGain, bestA, bestB = gain, a, b
		}
	}
	return bestA, bestB
}

// probe returns the estimate with a and b swapped, and undoes the swap.
func (d *swapDescent) probe(a, b int) int {
	d.swap(a, b)
	e := d.estimate()
	for i := len(d.moved) - 1; i >= 0; i-- {
		m := d.moved[i]
		d.add(int(m.v), d.vals[m.v].class, -1)
		d.vals[m.v].class = m.from
		d.add(int(m.v), m.from, 1)
	}
	d.s.FU[a], d.s.FU[b] = d.s.FU[b], d.s.FU[a]
	return e
}

// swap exchanges the units of a and b and re-classifies the values
// whose class that can change, recording each move in d.moved.
func (d *swapDescent) swap(a, b int) {
	d.s.FU[a], d.s.FU[b] = d.s.FU[b], d.s.FU[a]
	d.moved = d.moved[:0]
	g := d.s.Graph
	for _, node := range [2]int{a, b} {
		d.reclassify(node)
		for _, ei := range g.InEdgeIndices(node) {
			if e := g.Edge(ei); e.Kind == ddg.Flow {
				d.reclassify(e.From)
			}
		}
	}
}

// reclassify moves the value node produces, if any, to its class under
// the current units. It is idempotent, so a value reached twice in one
// swap moves once.
func (d *swapDescent) reclassify(node int) {
	v := d.value[node]
	if v < 0 {
		return
	}
	from, to := d.vals[v].class, classOf(d.s, node)
	if from == to {
		return
	}
	d.moved = append(d.moved, swapMove{v, from})
	d.add(int(v), from, -1)
	d.vals[v].class = to
	d.add(int(v), to, 1)
}

// add adds delta copies of value v's lifetime to class's live profile.
func (d *swapDescent) add(v int, class Class, delta int) {
	ii := d.s.II
	k := int(class) + 1
	a, w, b := d.vals[v].a, d.vals[v].w, d.vals[v].b
	d.base[k] += delta * a
	win := d.win[k*ii : (k+1)*ii]
	for t := w; t < min(w+b, ii); t++ {
		win[t] += delta
	}
	for t := 0; t < w+b-ii; t++ {
		win[t] += delta
	}
}

// estimate is Classify(s, lts).MaxLiveEstimate() under the current
// units: the maximum over clusters and kernel cycles of live globals
// plus live locals of that cluster.
func (d *swapDescent) estimate() int {
	ii := d.s.II
	global := d.win[:ii]
	worst := 0
	for k := 1; k < len(d.base); k++ {
		local := d.win[k*ii : (k+1)*ii]
		peak := global[0] + local[0]
		for t := 1; t < ii; t++ {
			peak = max(peak, global[t]+local[t])
		}
		worst = max(worst, d.base[0]+d.base[k]+peak)
	}
	return worst
}
