package sched

// This file pins the optimized iterative modulo scheduler byte-identical
// to the pre-optimization implementation (PR 1-6 era, commit d191fbe):
// referenceTryII below is a verbatim copy of the old tryII/imsState/
// findSlot/mrt code, and TestOptimizedSchedulerMatchesReference runs
// both over every (loop, machine) cell of the full corpus — curated
// kernels plus the 795-loop synthetic corpus — comparing II, Start and
// FU element-wise. Any hot-path change that alters even one placement
// decision fails here, which is what lets AlgorithmVersion stay at 1.

import (
	"slices"
	"sort"
	"testing"

	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

// referenceRun is the old Run body: II search upward from MII, each
// attempt through referenceTryII.
func referenceRun(g *ddg.Graph, m *machine.Config, opts Options) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	mii, _, _, err := MII(g, m)
	if err != nil {
		return nil, err
	}
	if opts.MinII > mii {
		mii = opts.MinII
	}
	maxII := mii + opts.maxIISlack() + g.NumNodes()
	for ii := mii; ii <= maxII; ii++ {
		s, ok, err := referenceTryII(g, m, ii, opts.budgetRatio())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := s.Verify(); err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, errRefUnschedulable
}

type refUnschedulable struct{}

func (refUnschedulable) Error() string { return "reference: unschedulable" }

var errRefUnschedulable = refUnschedulable{}

// refHeights is the old heights: per-attempt allocation of the weight
// and height arrays, relaxation in edge order.
func refHeights(g *ddg.Graph, m *machine.Config, ii int) []int {
	n := g.NumNodes()
	h := make([]int, n)
	edges := g.Edges()
	w := make([]int, len(edges))
	for i, e := range edges {
		w[i] = EdgeDelay(g, m, e) - ii*e.Distance
	}
	for round := 0; round < n+1; round++ {
		changed := false
		for i, e := range edges {
			if v := h[e.To] + w[i]; v > h[e.From] {
				h[e.From] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return h
}

func referenceTryII(g *ddg.Graph, m *machine.Config, ii, budgetRatio int) (*Schedule, bool, error) {
	n := g.NumNodes()
	h := refHeights(g, m, ii)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if h[order[a]] != h[order[b]] {
			return h[order[a]] > h[order[b]]
		}
		return order[a] < order[b]
	})

	st := &refState{
		g:        g,
		m:        m,
		ii:       ii,
		start:    make([]int, n),
		fu:       make([]int, n),
		placed:   make([]bool, n),
		mrt:      newRefMRT(ii, m.NumUnits()),
		unitLoad: make([]int, m.NumUnits()),
	}
	for i := range st.start {
		st.start[i] = -1
		st.fu[i] = -1
	}

	budget := budgetRatio * n
	if budget < 32 {
		budget = 32
	}
	unplaced := n
	for unplaced > 0 && budget > 0 {
		budget--
		u := st.nextUnscheduled(order)
		if u < 0 {
			return nil, false, errRefUnschedulable
		}
		estart := st.earliestStart(u)
		slot, fu, found := st.findSlot(u, estart)
		if !found {
			return nil, false, errRefUnschedulable
		}
		unplaced += st.place(u, slot, fu)
	}
	if unplaced > 0 {
		return nil, false, nil
	}
	return &Schedule{Graph: g, Mach: m, II: ii, Start: st.start, FU: st.fu}, true, nil
}

type refState struct {
	g        *ddg.Graph
	m        *machine.Config
	ii       int
	start    []int
	fu       []int
	placed   []bool
	mrt      *refMRT
	unitLoad []int
}

func (st *refState) nextUnscheduled(order []int) int {
	for _, id := range order {
		if !st.placed[id] {
			return id
		}
	}
	return -1
}

func (st *refState) earliestStart(u int) int {
	estart := 0
	for _, e := range st.g.InEdges(u) {
		if !st.placed[e.From] {
			continue
		}
		t := st.start[e.From] + EdgeDelay(st.g, st.m, e) - st.ii*e.Distance
		if t > estart {
			estart = t
		}
	}
	return estart
}

func (st *refState) findSlot(u, estart int) (slot, fu int, ok bool) {
	kind := st.g.Node(u).Op.FUKind()
	units := st.m.AppendUnitsOfKind(nil, kind)
	for t := estart; t < estart+st.ii; t++ {
		row := mod(t, st.ii)
		best := -1
		for _, ui := range units {
			if st.mrt.at(row, ui) >= 0 {
				continue
			}
			if best < 0 || st.unitLoad[ui] < st.unitLoad[best] {
				best = ui
			}
		}
		if best >= 0 {
			return t, best, true
		}
	}
	return 0, 0, false
}

func (st *refState) place(u, slot, fu int) int {
	row := mod(slot, st.ii)
	delta := 0
	st.mrt.set(row, fu, u)
	st.start[u] = slot
	st.fu[u] = fu
	st.placed[u] = true
	st.unitLoad[fu]++
	delta--

	for _, e := range st.g.OutEdges(u) {
		if e.To != u && st.placed[e.To] &&
			st.start[e.To] < slot+EdgeDelay(st.g, st.m, e)-st.ii*e.Distance {
			st.evict(e.To)
			delta++
		}
	}
	for _, e := range st.g.InEdges(u) {
		if e.From != u && st.placed[e.From] &&
			slot < st.start[e.From]+EdgeDelay(st.g, st.m, e)-st.ii*e.Distance {
			st.evict(e.From)
			delta++
		}
	}
	return delta
}

func (st *refState) evict(v int) {
	st.mrt.set(mod(st.start[v], st.ii), st.fu[v], -1)
	st.unitLoad[st.fu[v]]--
	st.placed[v] = false
	st.start[v] = -1
	st.fu[v] = -1
}

type refMRT struct {
	ii, units int
	cells     []int
}

func newRefMRT(ii, units int) *refMRT {
	m := &refMRT{ii: ii, units: units, cells: make([]int, ii*units)}
	for i := range m.cells {
		m.cells[i] = -1
	}
	return m
}

func (m *refMRT) at(row, unit int) int    { return m.cells[row*m.units+unit] }
func (m *refMRT) set(row, unit, node int) { m.cells[row*m.units+unit] = node }

// goldenCorpus is the full evaluation corpus: the curated kernels, the
// worked example, and the synthetic corpus at its default size and seed
// (the same population every figure runner sweeps).
func goldenCorpus(t *testing.T) []*ddg.Graph {
	t.Helper()
	corpus := append([]*ddg.Graph{}, loops.Kernels()...)
	corpus = append(corpus, loops.PaperExample())
	spec := loopgen.Defaults()
	if testing.Short() {
		spec.Loops = 100
	}
	return append(corpus, loopgen.Generate(spec)...)
}

// TestOptimizedSchedulerMatchesReference pins the optimized scheduler's
// output — II, every Start cycle, every FU binding — element-wise equal
// to the pre-optimization reference on every (loop, machine) cell of
// the corpus, for both paper latencies and the clustered example
// machine. Run under -race in CI.
func TestOptimizedSchedulerMatchesReference(t *testing.T) {
	machines := []*machine.Config{
		machine.Eval(3),
		machine.Eval(6),
		machine.Example(),
	}
	corpus := goldenCorpus(t)
	cells, mismatches := 0, 0
	for _, m := range machines {
		for _, g := range corpus {
			want, wantErr := referenceRun(g, m, Options{})
			got, gotErr := Run(g, m, Options{})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s on %s: reference err %v, optimized err %v", g.LoopName, m.Name(), wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			cells++
			if !sameSchedule(want, got) {
				mismatches++
				t.Errorf("%s on %s: schedule diverged:\nref II=%d Start=%v FU=%v\ngot II=%d Start=%v FU=%v",
					g.LoopName, m.Name(), want.II, want.Start, want.FU, got.II, got.Start, got.FU)
				if mismatches > 5 {
					t.Fatal("too many divergences; stopping")
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("no schedulable cells compared")
	}
	t.Logf("compared %d (loop, machine) cells", cells)
}

// TestOptimizedSchedulerMatchesReferenceForcedMinII covers the spiller's
// II-increase fallback path: forced MinII values above the natural MII
// must reproduce the reference placements too.
func TestOptimizedSchedulerMatchesReferenceForcedMinII(t *testing.T) {
	m := machine.Eval(6)
	for _, g := range loops.Kernels() {
		base, err := Run(g, m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.LoopName, err)
		}
		for _, bump := range []int{1, 3} {
			opts := Options{MinII: base.II + bump}
			want, wantErr := referenceRun(g, m, opts)
			got, gotErr := Run(g, m, opts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s MinII=%d: reference err %v, optimized err %v", g.LoopName, opts.MinII, wantErr, gotErr)
			}
			if wantErr == nil && !sameSchedule(want, got) {
				t.Errorf("%s MinII=%d: schedule diverged", g.LoopName, opts.MinII)
			}
		}
	}
}

// TestOptimizedSchedulerMatchesReferenceBudgets covers budgets below
// the default 8: a tight eviction budget exercises the eviction/worklist
// machinery far harder than the default.
func TestOptimizedSchedulerMatchesReferenceBudgets(t *testing.T) {
	m := machine.Eval(6)
	for _, ratio := range []int{1, 2, 4} {
		for _, g := range loops.Kernels() {
			want, wantErr := referenceRun(g, m, Options{BudgetRatio: ratio})
			got, gotErr := Run(g, m, Options{BudgetRatio: ratio})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s budget=%d: reference err %v, optimized err %v", g.LoopName, ratio, wantErr, gotErr)
			}
			if wantErr == nil && !sameSchedule(want, got) {
				t.Errorf("%s budget=%d: schedule diverged", g.LoopName, ratio)
			}
		}
	}
}

func sameSchedule(a, b *Schedule) bool {
	if a.II != b.II || len(a.Start) != len(b.Start) || len(a.FU) != len(b.FU) {
		return false
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] || a.FU[i] != b.FU[i] {
			return false
		}
	}
	return true
}

// TestPriorityOrderMatchesReferenceSort pins the slices.SortFunc keyed
// sort in tryII to the reference sort.Slice ordering. The comparator is
// a strict total order (height desc, node ID asc), so every correct sort
// algorithm must produce the same permutation — this test guards the
// comparator itself against drift.
func TestPriorityOrderMatchesReferenceSort(t *testing.T) {
	m := machine.Eval(6)
	for _, g := range goldenCorpus(t) {
		mii, _, _, err := MII(g, m)
		if err != nil {
			t.Fatal(err)
		}
		st := newIMSState(g, m)
		for _, ii := range []int{mii, mii + 1, mii + 7} {
			// The optimized path: heights + slices.SortFunc, as in tryII.
			st.heights(ii)
			for i := range st.order {
				st.order[i] = i
			}
			h := st.h
			slices.SortFunc(st.order, func(a, b int) int {
				switch {
				case h[a] > h[b]:
					return -1
				case h[a] < h[b]:
					return 1
				default:
					return a - b
				}
			})
			// The reference path, verbatim from the old tryII.
			refH := refHeights(g, m, ii)
			refOrder := make([]int, g.NumNodes())
			for i := range refOrder {
				refOrder[i] = i
			}
			sort.Slice(refOrder, func(a, b int) bool {
				if refH[refOrder[a]] != refH[refOrder[b]] {
					return refH[refOrder[a]] > refH[refOrder[b]]
				}
				return refOrder[a] < refOrder[b]
			})
			for i := range refOrder {
				if st.order[i] != refOrder[i] {
					t.Fatalf("%s ii=%d: priority order diverged at %d: %v vs %v",
						g.LoopName, ii, i, st.order, refOrder)
				}
			}
		}
	}
}
