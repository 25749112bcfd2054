package sched

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
)

// Options tunes the iterative modulo scheduler. The zero value selects
// the defaults used throughout the reproduction.
type Options struct {
	// BudgetRatio bounds the scheduling effort per II attempt to
	// BudgetRatio * NumNodes placement operations (Rau uses small
	// constants; default 8).
	BudgetRatio int
	// MaxIISlack bounds the II search: II is tried from MII up to
	// MII + MaxIISlack + NumNodes before giving up (default 10).
	MaxIISlack int
	// MinII forces the II search to start no lower than this value;
	// used by the spiller's II-increase fallback.
	MinII int
}

func (o Options) budgetRatio() int {
	if o.BudgetRatio <= 0 {
		return 8
	}
	return o.BudgetRatio
}

func (o Options) maxIISlack() int {
	if o.MaxIISlack <= 0 {
		return 10
	}
	return o.MaxIISlack
}

// Run modulo-schedules the loop onto the machine with iterative modulo
// scheduling. The returned schedule is always verified.
//
// The hot path is allocation-reused: Run borrows one pooled imsState,
// resized to the (graph, machine) pair, and every II attempt resets it
// in place (see DESIGN.md "Hot path"), so neither the II search nor the
// next Run reallocates the priority order, heights, reservation table or
// free-row bitsets. The search starts at max(ResMII, MinII) and runs
// RecMII's binary search only when that floor still has a positive
// cycle. Placement decisions are pinned byte-identical to the
// pre-optimization scheduler by the golden corpus test
// (TestOptimizedSchedulerMatchesReference), which is why AlgorithmVersion
// needs no bump for this layout.
func Run(g *ddg.Graph, m *machine.Config, opts Options) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	res, err := ResMII(g, m)
	if err != nil {
		return nil, err
	}
	st := newIMSState(g, m)
	defer st.release()
	mii := st.minII(max(res, opts.MinII))
	maxII := mii + opts.maxIISlack() + g.NumNodes()
	for ii := mii; ii <= maxII; ii++ {
		s, ok, err := st.tryII(ii, opts.budgetRatio())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := s.Verify(); err != nil {
			return nil, fmt.Errorf("sched: internal: produced invalid schedule for %s: %w", g.LoopName, err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("sched: loop %s not schedulable up to II=%d on %s", g.LoopName, maxII, m.Name())
}

// imsState is the scheduler's working state, owned by a single Run call
// between newIMSState and release: it is sized once per (graph, machine)
// pair and reset in place for every II attempt, so the II search
// allocates nothing per attempt. States are pooled across Runs and
// every buffer only grows. Nothing of a state escapes its Run except
// the start/fu arrays of a successful attempt, which tryII hands to the
// returned Schedule and drops from the state, so no later Run can
// scribble on them.
type imsState struct {
	g *ddg.Graph
	m *machine.Config
	n int

	// Per-(graph, machine) tables, computed once in newIMSState.
	nodeKind []machine.FUKind // FU kind per node
	delay    []int            // EdgeDelay of every edge leaving the node: m.Latency(nodeKind)
	units    [][]int          // unit indices per kind (machine.Kinds order), ascending
	kindOf   []int            // int(nodeKind), cached to index units/freeCnt without conversion

	// Per-attempt state, reset by reset(ii).
	ii       int
	start    []int
	fu       []int
	placed   []bool
	unitLoad []int
	mrt      []int // (row, unit) -> occupying node or -1; row-major, NumUnits stride

	// Free-row tracking per kind: freeCnt[k*ii+row] counts free units of
	// kind k in the kernel row, and freeBits holds one bitset of rows with
	// a nonzero count per kind (words64 words each, kind-major). findSlot
	// probes the bitset with find-first-set instead of scanning every
	// (cycle, unit) cell.
	freeCnt  []int
	freeBits []uint64
	words64  int

	// Priority worklist: order is the height-sorted priority order, rank
	// its inverse permutation, and ptr the lowest rank that can still be
	// unplaced — every rank below it is placed. nextUnscheduled advances
	// ptr over placed entries; evict rewinds it, preserving the invariant.
	h     []int
	w     []int // edge-weight buffer for the height relaxation
	order []int
	rank  []int
	ptr   int
}

var imsStates = sync.Pool{New: func() any { return new(imsState) }}

// newIMSState borrows a scheduler state from the pool and sizes it for
// the pair: the node-kind and edge-delay tables (so the placement loops
// never re-derive latencies through EdgeDelay) and the per-kind unit
// lists (so findSlot never re-copies them out of the machine config).
func newIMSState(g *ddg.Graph, m *machine.Config) *imsState {
	n := g.NumNodes()
	st := imsStates.Get().(*imsState)
	st.g, st.m, st.n = g, m, n
	st.nodeKind = resize(st.nodeKind, n)
	st.delay = resize(st.delay, n)
	st.kindOf = resize(st.kindOf, n)
	st.start = resize(st.start, n)
	st.fu = resize(st.fu, n)
	st.placed = resize(st.placed, n)
	st.unitLoad = resize(st.unitLoad, m.NumUnits())
	st.h = resize(st.h, n)
	st.w = resize(st.w, g.NumEdges())
	st.order = resize(st.order, n)
	st.rank = resize(st.rank, n)
	for id, node := range g.Nodes() {
		k := node.Op.FUKind()
		st.nodeKind[id] = k
		st.kindOf[id] = int(k)
		st.delay[id] = m.Latency(k)
	}
	st.units = resize(st.units, len(machine.Kinds))
	for _, k := range machine.Kinds {
		st.units[k] = m.AppendUnitsOfKind(st.units[k][:0], k)
	}
	return st
}

// release returns the state to the pool, dropping its graph and machine
// so the pool does not keep the last pair it scheduled alive.
func (st *imsState) release() {
	st.g, st.m = nil, nil
	imsStates.Put(st)
}

// minII returns max(floor, RecMII) for floor >= 1, using the edge-weight
// and height buffers as RecMII's delay table and relaxation scratch
// before the first attempt overwrites them.
func (st *imsState) minII(floor int) int {
	for i := range st.w {
		st.w[i] = st.delay[st.g.Edge(i).From]
	}
	return recMIIFrom(st.g, st.w, st.h, floor)
}

// reset prepares the state for one II attempt, growing the ii-sized
// tables in place instead of reallocating them.
func (st *imsState) reset(ii int) {
	st.ii = ii
	for i := 0; i < st.n; i++ {
		st.start[i] = -1
		st.fu[i] = -1
		st.placed[i] = false
	}
	for i := range st.unitLoad {
		st.unitLoad[i] = 0
	}
	st.mrt = resize(st.mrt, ii*st.m.NumUnits())
	for i := range st.mrt {
		st.mrt[i] = -1
	}
	kinds := len(machine.Kinds)
	st.freeCnt = resize(st.freeCnt, kinds*ii)
	st.words64 = (ii + 63) / 64
	st.freeBits = resize(st.freeBits, kinds*st.words64)
	for i := range st.freeBits {
		st.freeBits[i] = 0
	}
	for k := range st.units {
		cnt := len(st.units[k])
		for row := 0; row < ii; row++ {
			st.freeCnt[k*ii+row] = cnt
			if cnt > 0 {
				st.freeBits[k*st.words64+row>>6] |= 1 << (uint(row) & 63)
			}
		}
	}
	st.ptr = 0
}

// resize returns buf with exactly n elements, reusing its backing array
// whenever it is large enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// heights computes the height-based priority of every node at the given
// II into st.h: height(u) = max over out-edges e=(u,v) of
// height(v) + delay(e) - II*distance(e), with sinks at 0, by
// Bellman-Ford-style relaxation over the precomputed delay table. Valid
// whenever the constraint graph has no positive cycle (II >= RecMII).
func (st *imsState) heights(ii int) {
	g := st.g
	ne := g.NumEdges()
	for i := 0; i < st.n; i++ {
		st.h[i] = 0
	}
	for i := 0; i < ne; i++ {
		e := g.Edge(i)
		st.w[i] = st.delay[e.From] - ii*e.Distance
	}
	for round := 0; round < st.n+1; round++ {
		changed := false
		for i := 0; i < ne; i++ {
			e := g.Edge(i)
			if v := st.h[e.To] + st.w[i]; v > st.h[e.From] {
				st.h[e.From] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// tryII attempts to find a schedule at a fixed II with a bounded budget.
// A nil error with ok == false means the budget ran out (try a larger
// II); a non-nil error means the machine configuration itself cannot
// host the loop and no II will help.
//
// On success the start/fu arrays are handed to the Schedule and dropped
// from the state, so neither a later attempt nor the next Run to borrow
// the state can alias the returned schedule.
func (st *imsState) tryII(ii, budgetRatio int) (*Schedule, bool, error) {
	g, n := st.g, st.n
	st.heights(ii)

	// Priority order: higher height first, then lower node ID — a strict
	// total order, so any correct sort reproduces the reference ordering
	// (pinned by TestPriorityOrderMatchesReferenceSort). slices.SortFunc
	// sorts the reused order slice without the per-attempt comparator
	// closure and reflection-based swaps of sort.Slice.
	h := st.h
	for i := range st.order {
		st.order[i] = i
	}
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
	for i, id := range st.order {
		st.rank[id] = i
	}

	st.reset(ii)

	budget := budgetRatio * n
	if budget < 32 {
		budget = 32
	}
	unplaced := n
	for unplaced > 0 && budget > 0 {
		budget--
		u := st.nextUnscheduled()
		if u < 0 {
			// Cannot happen while unplaced > 0: the priority order covers
			// every node, so a placed-everything state contradicts the
			// unplaced count. A malformed order is the only way here, so
			// fail with enough context to diagnose it — through the same
			// contextual-error path as findSlot — instead of taking the
			// whole sweep down with a panic.
			return nil, false, fmt.Errorf(
				"sched: loop %s at II=%d: %d operations unplaced but none unscheduled in the priority order (inconsistent scheduler state)",
				g.LoopName, ii, unplaced)
		}
		estart := st.earliestStart(u)
		slot, fu, found := st.findSlot(u, estart)
		if !found {
			// Cannot happen with fully pipelined units occupying one
			// reservation cell each: at II >= ResMII the kind has at
			// most II*units operations, so some cell is free, and the
			// II-cycle search window visits every kernel row. A
			// malformed machine config is the only way here, so fail
			// with enough context to diagnose it instead of taking the
			// whole sweep down.
			node := g.Node(u)
			return nil, false, fmt.Errorf(
				"sched: loop %s at II=%d: no free %s reservation cell for op %s on %s (inconsistent machine config)",
				g.LoopName, ii, node.Op.FUKind(), node.Label(), st.m.Name())
		}
		unplaced += st.place(u, slot, fu)
	}
	if unplaced > 0 {
		return nil, false, nil
	}
	s := &Schedule{Graph: g, Mach: st.m, II: ii, Start: st.start, FU: st.fu}
	st.start, st.fu = nil, nil
	return s, true, nil
}

// nextUnscheduled returns the highest-priority unscheduled node, or -1
// when every node is placed (which the caller reports as an
// inconsistent-state error; see the call site). ptr is a lower bound on
// the first unplaced rank — everything below it is placed — so the scan
// resumes where the last one stopped instead of rescanning the full
// order; evictions rewind ptr to keep the invariant (see evict).
func (st *imsState) nextUnscheduled() int {
	for st.ptr < st.n && st.placed[st.order[st.ptr]] {
		st.ptr++
	}
	if st.ptr == st.n {
		return -1
	}
	return st.order[st.ptr]
}

// earliestStart computes the earliest legal issue cycle of u with respect
// to its currently scheduled predecessors.
func (st *imsState) earliestStart(u int) int {
	g := st.g
	estart := 0
	for _, ei := range g.InEdgeIndices(u) {
		e := g.Edge(ei)
		if !st.placed[e.From] {
			continue
		}
		t := st.start[e.From] + st.delay[e.From] - st.ii*e.Distance
		if t > estart {
			estart = t
		}
	}
	return estart
}

// findSlot searches cycles [estart, estart+II-1] for a free unit of the
// right kind, preferring the least-loaded unit (which spreads operations
// across clusters as a real cluster scheduler would). The cycle search
// is a find-first-set over the kind's free-row bitset — one probe per
// 64 kernel rows instead of a per-cycle per-unit scan — and only the
// single row it lands on is scanned for the least-loaded free unit,
// exactly the unit the reference scan would have picked (the bitset
// yields the first cycle in the window whose row has any free cell,
// which is precisely where the reference scan stops).
func (st *imsState) findSlot(u, estart int) (slot, fu int, ok bool) {
	k := st.kindOf[u]
	r0 := mod(estart, st.ii)
	d, found := st.firstFreeRowOffset(k, r0)
	if !found {
		return 0, 0, false
	}
	row := r0 + d
	if row >= st.ii {
		row -= st.ii
	}
	best := -1
	base := row * len(st.unitLoad)
	for _, ui := range st.units[k] {
		if st.mrt[base+ui] >= 0 {
			continue
		}
		if best < 0 || st.unitLoad[ui] < st.unitLoad[best] {
			best = ui
		}
	}
	if best < 0 {
		return 0, 0, false // free count and bitset out of sync; impossible
	}
	return estart + d, best, true
}

// firstFreeRowOffset returns the smallest offset d in [0, II) such that
// kernel row (r0 + d) mod II has a free unit of kind k, scanning the
// kind's free-row bitset circularly from r0.
func (st *imsState) firstFreeRowOffset(k, r0 int) (int, bool) {
	words := st.freeBits[k*st.words64 : (k+1)*st.words64]
	wi := r0 >> 6
	// Rows [r0, II): the first word masked below r0, then whole words.
	if b := words[wi] &^ (1<<(uint(r0)&63) - 1); b != 0 {
		return wi<<6 + bits.TrailingZeros64(b) - r0, true
	}
	for i := wi + 1; i < len(words); i++ {
		if b := words[i]; b != 0 {
			return i<<6 + bits.TrailingZeros64(b) - r0, true
		}
	}
	// Wrap: rows [0, r0), the last word masked at and above r0.
	for i := 0; i < wi; i++ {
		if b := words[i]; b != 0 {
			return i<<6 + bits.TrailingZeros64(b) + st.ii - r0, true
		}
	}
	if b := words[wi] & (1<<(uint(r0)&63) - 1); b != 0 {
		return wi<<6 + bits.TrailingZeros64(b) + st.ii - r0, true
	}
	return 0, false
}

// takeCell records that one unit of kind k in the row was occupied,
// clearing the row's free bit when the last unit fills.
func (st *imsState) takeCell(k, row int) {
	i := k*st.ii + row
	st.freeCnt[i]--
	if st.freeCnt[i] == 0 {
		st.freeBits[k*st.words64+row>>6] &^= 1 << (uint(row) & 63)
	}
}

// freeCell is takeCell's inverse, setting the row's free bit again when
// the count leaves zero.
func (st *imsState) freeCell(k, row int) {
	i := k*st.ii + row
	if st.freeCnt[i] == 0 {
		st.freeBits[k*st.words64+row>>6] |= 1 << (uint(row) & 63)
	}
	st.freeCnt[i]++
}

// place schedules u at (slot, fu) — a free reservation cell by findSlot's
// contract — and evicts any scheduled neighbor whose dependence
// constraint the placement violates (which is how IMS untangles
// recurrences whose members were placed out of order). It returns the net
// change in the number of unscheduled nodes (-1 for u itself, +1 per
// eviction).
func (st *imsState) place(u, slot, fu int) int {
	g := st.g
	row := mod(slot, st.ii)
	delta := 0
	st.mrt[row*len(st.unitLoad)+fu] = u
	st.start[u] = slot
	st.fu[u] = fu
	st.placed[u] = true
	st.unitLoad[fu]++
	st.takeCell(st.kindOf[u], row)
	delta--

	// Dependence-violating neighbors. The producing side of an out-edge
	// is u itself, so its delay is the one precomputed for u.
	du := st.delay[u]
	for _, ei := range g.OutEdgeIndices(u) {
		e := g.Edge(ei)
		if e.To != u && st.placed[e.To] &&
			st.start[e.To] < slot+du-st.ii*e.Distance {
			st.evict(e.To)
			delta++
		}
	}
	for _, ei := range g.InEdgeIndices(u) {
		e := g.Edge(ei)
		if e.From != u && st.placed[e.From] &&
			slot < st.start[e.From]+st.delay[e.From]-st.ii*e.Distance {
			st.evict(e.From)
			delta++
		}
	}
	return delta
}

func (st *imsState) evict(v int) {
	row := mod(st.start[v], st.ii)
	st.mrt[row*len(st.unitLoad)+st.fu[v]] = -1
	st.freeCell(st.kindOf[v], row)
	st.unitLoad[st.fu[v]]--
	st.placed[v] = false
	st.start[v] = -1
	st.fu[v] = -1
	if st.rank[v] < st.ptr {
		st.ptr = st.rank[v]
	}
}
