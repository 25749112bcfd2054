// Package lifetime computes value lifetimes and live-value statistics of
// modulo schedules. Following the paper (section 2), the lifetime of a
// value starts when its producer issues and ends when its last consumer
// finishes, so that issued operations can always complete across
// interrupts.
package lifetime

import (
	"fmt"

	"ncdrf/internal/ddg"
	"ncdrf/internal/sched"
)

// Lifetime is the live range of one loop-variant value in the flat
// (iteration 0) time frame of a schedule.
type Lifetime struct {
	// Node is the producing node's ID.
	Node int
	// Start is the producer's issue cycle.
	Start int
	// End is the cycle at which the last consumer completes; for values
	// with no consumer, the producer's own completion.
	End int
}

// Len returns the lifetime length in cycles.
func (l Lifetime) Len() int { return l.End - l.Start }

// String renders "node(start,end)".
func (l Lifetime) String() string { return fmt.Sprintf("v%d[%d,%d)", l.Node, l.Start, l.End) }

// Compute returns the lifetime of every value-producing operation of the
// schedule, in node-ID order. Loop-carried consumers (distance d) finish
// d iterations later, contributing Start + d*II + latency to the end.
func Compute(s *sched.Schedule) []Lifetime {
	g := s.Graph
	producers := 0
	for _, n := range g.Nodes() {
		if n.Op.ProducesValue() {
			producers++
		}
	}
	if producers == 0 {
		return nil
	}
	out := make([]Lifetime, 0, producers)
	for _, n := range g.Nodes() {
		if !n.Op.ProducesValue() {
			continue
		}
		start := s.Start[n.ID]
		end := start + s.Mach.Latency(n.Op.FUKind())
		for _, ei := range g.OutEdgeIndices(n.ID) {
			e := g.Edge(ei)
			if e.Kind != ddg.Flow {
				continue
			}
			finish := s.Start[e.To] + e.Distance*s.II + s.Mach.Latency(g.Node(e.To).Op.FUKind())
			if finish > end {
				end = finish
			}
		}
		out = append(out, Lifetime{Node: n.ID, Start: start, End: end})
	}
	return out
}

// SumLen returns the total length of the lifetimes.
func SumLen(lts []Lifetime) int {
	sum := 0
	for _, l := range lts {
		sum += l.Len()
	}
	return sum
}

// LiveAt returns the number of live value instances at kernel cycle t
// (0 <= t < II) in the steady state: every iteration contributes a copy
// of each value shifted by II, so value v is live floor((t-Start)/II) -
// floor((t-End)/II) times.
func LiveAt(lts []Lifetime, ii, t int) int {
	n := 0
	for _, l := range lts {
		n += floorDiv(t-l.Start, ii) - floorDiv(t-l.End, ii)
	}
	return n
}

// LiveProfile returns the live-instance count of every kernel cycle t in
// [0, II) — LiveAt(lts, ii, t) for each t — computed with a difference
// array in O(len(lts) + ii) instead of the per-cycle O(len(lts) * ii)
// sum. Each value of length L = a*II + b contributes a floor instances
// everywhere plus one more on the circular window of b cycles starting
// at Start mod II; the windows accumulate as endpoint deltas and one
// prefix sum recovers the counts. buf's backing array is reused when
// large enough, so steady-state callers allocate nothing.
func LiveProfile(lts []Lifetime, ii int, buf []int) []int {
	if ii < 1 {
		return buf[:0]
	}
	if cap(buf) < ii+1 {
		buf = make([]int, ii+1)
	}
	buf = buf[:ii+1]
	clear(buf)
	base := 0
	for _, l := range lts {
		a, w, b := Window(l, ii)
		base += a
		if b == 0 {
			continue
		}
		if w+b <= ii {
			buf[w]++
			buf[w+b]--
		} else { // window wraps: [w, ii) and [0, w+b-ii)
			buf[0]++
			buf[w+b-ii]--
			buf[w]++
		}
	}
	run := base
	for t := 0; t < ii; t++ {
		run += buf[t]
		buf[t] = run
	}
	return buf[:ii]
}

// Window splits a lifetime's share of a live profile of interval ii >= 1
// (LiveProfile's decomposition): for length L = a*II + b it is live a
// times at every kernel cycle, plus once more on the circular window of
// b cycles starting at w = Start mod II. a = floor(L/II), b is in
// [0, ii) and w in [0, ii). It is small enough to inline into
// LiveProfile's loop.
func Window(l Lifetime, ii int) (a, w, b int) {
	length := l.End - l.Start
	a, b = length/ii, length%ii
	if b < 0 {
		a, b = a-1, b+ii
	}
	if w = l.Start % ii; w < 0 {
		w += ii
	}
	return a, w, b
}

// MaxLive returns the maximum number of simultaneously live value
// instances over a steady-state kernel iteration. It is a lower bound on
// the registers required by any allocation.
func MaxLive(lts []Lifetime, ii int) int {
	max := 0
	for _, v := range LiveProfile(lts, ii, nil) {
		if v > max {
			max = v
		}
	}
	return max
}

// AvgLiveBound returns ceil(sum of lifetimes / II), the average-live lower
// bound on rotating allocation (each value occupies a single wand).
func AvgLiveBound(lts []Lifetime, ii int) int {
	sum := SumLen(lts)
	return (sum + ii - 1) / ii
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
