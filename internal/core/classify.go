// Package core implements the paper's contribution: the non-consistent
// dual register file. Values of a modulo-scheduled loop are classified by
// the clusters that consume them — values read by both clusters are
// replicated ("global"), values read by a single cluster live only in
// that cluster's subfile ("left-only"/"right-only") — and a greedy
// post-scheduling swap pass rebalances operations between clusters to
// shrink the requirement further (sections 4 and 5.2).
package core

import (
	"fmt"

	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/sched"
)

// Class describes where a value must be stored.
type Class int

const (
	// Global values are consumed by more than one cluster and keep a
	// consistent copy in every subfile.
	Global Class = -1
	// Non-negative classes are the index of the single cluster whose
	// subfile stores the value (0 = "left-only", 1 = "right-only" in the
	// paper's two-cluster terminology).
)

// String renders "GL" for global and "C<i>" for cluster-local classes
// ("C0" corresponds to the paper's LO, "C1" to RO).
func (c Class) String() string {
	if c == Global {
		return "GL"
	}
	return fmt.Sprintf("C%d", int(c))
}

// Classification partitions a schedule's value lifetimes by storage class.
type Classification struct {
	// II is the schedule's initiation interval.
	II int
	// Clusters is the machine's cluster count.
	Clusters int
	// ByValue maps each value-producing node ID to its class.
	ByValue map[int]Class
	// GlobalLts holds lifetimes of global values.
	GlobalLts []lifetime.Lifetime
	// LocalLts holds lifetimes of cluster-local values, per cluster.
	LocalLts [][]lifetime.Lifetime
}

// Classify computes the storage class of every value of the schedule
// under the non-consistent dual register file discipline:
//
//   - a value consumed by operations of a single cluster is local to
//     that cluster;
//   - a value consumed by several clusters is global;
//   - a value with no consumers is local to its producer's cluster.
func Classify(s *sched.Schedule, lts []lifetime.Lifetime) *Classification {
	return classify(s, lts, make(map[int]Class, len(lts)))
}

// classify partitions the lifetimes by class, recording each value's
// class in byValue when it is non-nil. The requirement path and the fit
// tests pass nil: they only read the per-class lifetime sets.
func classify(s *sched.Schedule, lts []lifetime.Lifetime, byValue map[int]Class) *Classification {
	cl := &Classification{
		II:       s.II,
		Clusters: s.Mach.NumClusters(),
		ByValue:  byValue,
		LocalLts: make([][]lifetime.Lifetime, s.Mach.NumClusters()),
	}
	for _, l := range lts {
		class := classOf(s, l.Node)
		if byValue != nil {
			byValue[l.Node] = class
		}
		if class == Global {
			cl.GlobalLts = append(cl.GlobalLts, l)
		} else {
			cl.LocalLts[int(class)] = append(cl.LocalLts[int(class)], l)
		}
	}
	return cl
}

// classOf computes the class of a single value under the current cluster
// assignment of the schedule. It walks the adjacency via OutEdgeIndices
// so the swap pass, which calls it per value per candidate, allocates
// nothing.
func classOf(s *sched.Schedule, node int) Class {
	g := s.Graph
	first := -1
	multi := false
	for _, ei := range g.OutEdgeIndices(node) {
		e := g.Edge(ei)
		if e.Kind != ddg.Flow {
			continue
		}
		c := s.Cluster(e.To)
		if first < 0 {
			first = c
		} else if c != first {
			multi = true
		}
	}
	switch {
	case multi:
		return Global
	case first >= 0:
		return Class(first)
	default:
		return Class(s.Cluster(node))
	}
}

// CountByClass returns the number of values in each class: the global
// count plus one count per cluster.
func (c *Classification) CountByClass() (global int, local []int) {
	local = make([]int, c.Clusters)
	for i := range c.LocalLts {
		local[i] = len(c.LocalLts[i])
	}
	return len(c.GlobalLts), local
}

// SumByClass returns the total lifetime length per class; with II=1 these
// are exactly the register counts of Tables 3 and 4 of the paper.
func (c *Classification) SumByClass() (global int, local []int) {
	local = make([]int, c.Clusters)
	global = lifetime.SumLen(c.GlobalLts)
	for i := range c.LocalLts {
		local[i] = lifetime.SumLen(c.LocalLts[i])
	}
	return global, local
}

// MaxLiveEstimate is the register-requirement lower bound the paper's
// swap heuristic optimizes: for each cluster, the maximum over kernel
// cycles of live globals plus live locals of that cluster; the estimate
// is the maximum over clusters. A machine with a single cluster gets the
// plain MaxLive.
func (c *Classification) MaxLiveEstimate() int {
	gprof := lifetime.LiveProfile(c.GlobalLts, c.II, nil)
	worst := 0
	var lbuf []int
	for cluster := 0; cluster < c.Clusters; cluster++ {
		lbuf = lifetime.LiveProfile(c.LocalLts[cluster], c.II, lbuf)
		for t, g := range gprof {
			if v := g + lbuf[t]; v > worst {
				worst = v
			}
		}
	}
	return worst
}
