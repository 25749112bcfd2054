package lir

import (
	"slices"

	"ncdrf/internal/ddg"
)

// EliminateStackSpills implements the methodology pass of section 5.1: the
// input graphs were produced from compiled code that may already contain
// spill code (stores to stack slots followed by loads from the same slot).
// The pass removes each matched store/load pair and reconnects the store's
// value producer to every consumer of the load, composing iteration
// distances. Unmatched stack accesses are left untouched.
//
// It returns the rewritten graph and the number of removed operations;
// with nothing to remove, the graph is g itself.
func EliminateStackSpills(g *ddg.Graph) (*ddg.Graph, int) {
	type slotUse struct {
		stores []int
		loads  []int
	}
	slots := map[int]*slotUse{}
	for _, n := range g.Nodes() {
		if n.SpillSlot < 0 {
			continue
		}
		u := slots[n.SpillSlot]
		if u == nil {
			u = &slotUse{}
			slots[n.SpillSlot] = u
		}
		switch n.Op {
		case ddg.STORE:
			u.stores = append(u.stores, n.ID)
		case ddg.LOAD:
			u.loads = append(u.loads, n.ID)
		}
	}

	remove := map[int]bool{}
	// reconnect[i] holds extra flow edges to add, expressed in old IDs.
	// Slots are visited in sorted order: the reconnect edges' order flows
	// into the rebuilt graph's edge list, and a map-ordered walk here
	// would make the output graph — and everything scheduled from it —
	// differ from run to run.
	var reconnect []ddg.Edge
	slotIDs := make([]int, 0, len(slots))
	for id := range slots {
		slotIDs = append(slotIDs, id)
	}
	slices.Sort(slotIDs)
	for _, id := range slotIDs {
		u := slots[id]
		// The paper's pattern is one store with posterior loads of the
		// same slot. Only eliminate unambiguous single-store slots.
		if len(u.stores) != 1 || len(u.loads) == 0 {
			continue
		}
		store := u.stores[0]
		producer, prodDist, ok := valueInto(g, store)
		if !ok {
			continue // store of an invariant or literal: nothing to reconnect
		}
		remove[store] = true
		for _, load := range u.loads {
			remove[load] = true
			for _, e := range g.OutEdges(load) {
				if e.Kind != ddg.Flow {
					continue
				}
				reconnect = append(reconnect, ddg.Edge{
					From:     producer,
					To:       e.To,
					Kind:     ddg.Flow,
					Distance: prodDist + e.Distance,
				})
			}
		}
	}
	if len(remove) == 0 {
		return g, 0
	}

	out := ddg.New(g.LoopName, g.Trips)
	oldToNew := make([]int, g.NumNodes())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for _, n := range g.Nodes() {
		if remove[n.ID] {
			continue
		}
		id := out.AddNode(n.Op, n.Name)
		out.Node(id).Sym = n.Sym
		out.Node(id).SpillSlot = n.SpillSlot
		oldToNew[n.ID] = id
	}
	addEdge := func(e ddg.Edge) {
		from, to := oldToNew[e.From], oldToNew[e.To]
		if from < 0 || to < 0 {
			return
		}
		e.From, e.To = from, to
		out.MustAddEdge(e)
	}
	for _, e := range g.Edges() {
		addEdge(e)
	}
	for _, e := range reconnect {
		addEdge(e)
	}
	return out, len(remove)
}

// valueInto returns the producer feeding a store's value operand along a
// flow edge, with its distance.
func valueInto(g *ddg.Graph, store int) (producer, dist int, ok bool) {
	for _, e := range g.InEdges(store) {
		if e.Kind == ddg.Flow {
			return e.From, e.Distance, true
		}
	}
	return 0, 0, false
}
