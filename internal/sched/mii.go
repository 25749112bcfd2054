package sched

import (
	"fmt"

	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
)

// ResMII returns the resource-constrained minimum initiation interval:
// for each functional-unit kind, ceil(ops of that kind / units of that
// kind), maximized over kinds. An error is returned if the loop uses a
// kind the machine lacks.
func ResMII(g *ddg.Graph, m *machine.Config) (int, error) {
	var counts [len(machine.Kinds)]int
	for _, n := range g.Nodes() {
		counts[n.Op.FUKind()]++
	}
	// Visit the kinds in a fixed order: when a loop needs several kinds
	// the machine lacks, the error must name the same one every run.
	// machine.Kinds is ascending in FUKind, the same order the previous
	// map-and-sort implementation visited.
	mii := 1
	for _, kind := range machine.Kinds {
		ops := counts[kind]
		if ops == 0 {
			continue
		}
		units := m.CountOfKind(kind)
		if units == 0 {
			return 0, fmt.Errorf("sched: machine %s has no %s units but loop %s needs %d",
				m.Name(), kind, g.LoopName, ops)
		}
		need := (ops + units - 1) / units
		if need > mii {
			mii = need
		}
	}
	return mii, nil
}

// RecMII returns the recurrence-constrained minimum initiation interval:
// the smallest II such that the dependence-constraint graph with edge
// weights delay(e) - II*distance(e) has no positive-weight cycle. For an
// acyclic graph it is 1.
func RecMII(g *ddg.Graph, m *machine.Config) int {
	delay := make([]int, g.NumEdges())
	for i := range delay {
		delay[i] = EdgeDelay(g, m, g.Edge(i))
	}
	return recMIIFrom(g, delay, make([]int, g.NumNodes()), 1)
}

// recMIIFrom returns max(floor, RecMII) for floor >= 1. The predicate
// "no positive cycle at II" is monotone in II (raising II only lowers
// weights), so one relaxation pass at the floor settles the common case
// where the floor already kills every cycle; otherwise a binary search
// runs over (floor, sum of delays + 1], where every cycle is dead. delay
// holds per-edge delays indexed like g.Edge; dist is scratch of
// NumNodes length. Both buffers are shared by every probe.
func recMIIFrom(g *ddg.Graph, delay, dist []int, floor int) int {
	if !hasPositiveCycle(g, delay, dist, floor) {
		return floor
	}
	hi := 1
	for _, d := range delay {
		hi += d
	}
	lo := floor + 1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if hasPositiveCycle(g, delay, dist, mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// hasPositiveCycle reports whether the constraint graph at the given II
// contains a positive-weight cycle, using Bellman-Ford-style relaxation:
// if longest-path distances still relax after N rounds, a positive cycle
// exists. delay holds per-edge delays indexed like g.Edge; dist is a
// caller-owned scratch buffer of NumNodes length.
func hasPositiveCycle(g *ddg.Graph, delay, dist []int, ii int) bool {
	n := g.NumNodes()
	ne := g.NumEdges()
	for i := range dist {
		dist[i] = 0 // longest path from a virtual source to each node
	}
	for round := 0; round < n; round++ {
		changed := false
		for i := 0; i < ne; i++ {
			e := g.Edge(i)
			if d := dist[e.From] + delay[i] - ii*e.Distance; d > dist[e.To] {
				dist[e.To] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// One more relaxation round: any further improvement proves a cycle.
	for i := 0; i < ne; i++ {
		e := g.Edge(i)
		if dist[e.From]+delay[i]-ii*e.Distance > dist[e.To] {
			return true
		}
	}
	return false
}

// MII returns max(ResMII, RecMII) along with both components.
func MII(g *ddg.Graph, m *machine.Config) (mii, res, rec int, err error) {
	res, err = ResMII(g, m)
	if err != nil {
		return 0, 0, 0, err
	}
	rec = RecMII(g, m)
	mii = res
	if rec > mii {
		mii = rec
	}
	return mii, res, rec, nil
}
