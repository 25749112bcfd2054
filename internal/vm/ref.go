package vm

import (
	"fmt"

	"ncdrf/internal/ddg"
)

// StoreKey identifies one dynamic store: the store node's label and the
// iteration that executed it.
type StoreKey struct {
	Node string
	Iter int
}

// StoreStream is the observable output of a loop execution: the value
// written by every (non-spill) store in every iteration.
type StoreStream map[StoreKey]float64

// RunReference executes the loop sequentially for the given number of
// iterations: iteration by iteration, operations in dependence order,
// loop-carried operands taken from the producing iteration's value (or a
// deterministic initial value when it precedes the loop).
func RunReference(g *ddg.Graph, iters int) (StoreStream, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if iters < 1 {
		return nil, fmt.Errorf("vm: iters = %d", iters)
	}
	order := g.TopoOrder()
	hist := make([][]float64, g.NumNodes())
	for i := range hist {
		hist[i] = make([]float64, iters)
	}
	out := StoreStream{}
	// Spill slots behave as memory shared across iterations; the
	// reference supports them so that spilled graphs can also be run
	// sequentially (used in tests), keyed by slot and iteration.
	spillMem := map[int]map[int]float64{}

	for it := 0; it < iters; it++ {
		for _, id := range order {
			n := g.Node(id)
			args := operandValues(g, n, it, func(from, fromIter int) float64 {
				if fromIter < 0 {
					return initValue(g.Node(from).Label(), fromIter)
				}
				return hist[from][fromIter]
			})
			v, err := perform(g, n, it, args, spillMem, out)
			if err != nil {
				return nil, err
			}
			hist[id][it] = v
		}
	}
	return out, nil
}

// operandValues resolves a node's flow in-edge values in edge order,
// using fetch to obtain the value produced by (from, fromIter).
func operandValues(g *ddg.Graph, n *ddg.Node, iter int, fetch func(from, fromIter int) float64) []float64 {
	var args []float64
	for _, e := range g.InEdges(n.ID) {
		if e.Kind != ddg.Flow {
			continue
		}
		args = append(args, fetch(e.From, iter-e.Distance))
	}
	return args
}

// perform executes one dynamic operation of n in iteration iter on its
// operand values, with the semantics both executors share: a store
// records its value in out (a spill store in its slot) and returns 0;
// any other operation returns its result.
func perform(g *ddg.Graph, n *ddg.Node, iter int, args []float64, spillMem map[int]map[int]float64, out StoreStream) (float64, error) {
	switch {
	case n.Op == ddg.LOAD && n.SpillSlot >= 0:
		return readSpill(spillMem, g, n, iter)
	case n.Op == ddg.LOAD:
		return loadValue(n.Label(), iter), nil
	case n.Op == ddg.STORE && n.SpillSlot >= 0:
		slot := spillMem[n.SpillSlot]
		if slot == nil {
			slot = map[int]float64{}
			spillMem[n.SpillSlot] = slot
		}
		slot[iter] = storedValue(n, args)
	case n.Op == ddg.STORE:
		out[StoreKey{Node: n.Label(), Iter: iter}] = storedValue(n, args)
	default:
		return compute(n, args), nil
	}
	return 0, nil
}

// storedValue is the single value operand of a store, padded if the
// source stored an invariant.
func storedValue(n *ddg.Node, args []float64) float64 {
	if len(args) > 0 {
		return args[0]
	}
	return padValue(n.Label(), 0)
}

// readSpill reads the spill slot value written dist iterations earlier,
// where dist comes from the reload's memory in-edge.
func readSpill(spillMem map[int]map[int]float64, g *ddg.Graph, n *ddg.Node, iter int) (float64, error) {
	dist := 0
	found := false
	var store *ddg.Node
	for _, e := range g.InEdges(n.ID) {
		if e.Kind == ddg.Mem {
			dist = e.Distance
			store = g.Node(e.From)
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("vm: reload %s has no memory dependence", n)
	}
	src := iter - dist
	if src < 0 {
		// The paired store has not run yet: the slot holds what the
		// original (unspilled) value would have held before the loop, so
		// spilled and unspilled executions stay bit-identical.
		return initValue(spillProducerLabel(g, store), src), nil
	}
	slot, ok := spillMem[n.SpillSlot]
	if ok {
		if v, ok := slot[src]; ok {
			return v, nil
		}
	}
	return 0, fmt.Errorf("vm: reload %s reads slot %d iteration %d before its store", n, n.SpillSlot, src)
}

// spillProducerLabel resolves the label of the value feeding a spill
// store, falling back to the store's own label.
func spillProducerLabel(g *ddg.Graph, store *ddg.Node) string {
	if store == nil {
		return "spill"
	}
	for _, e := range g.InEdges(store.ID) {
		if e.Kind == ddg.Flow {
			return g.Node(e.From).Label()
		}
	}
	return store.Label()
}
