// Package regalloc allocates loop-variant values to rotating register
// files using the exact "wand" model of Rau, Lee, Tirumalai and
// Schlansker (PLDI'92), with the Wands Only strategy and First Fit
// ordering chosen by the paper (section 2).
//
// Model. With R rotating registers and initiation interval II, a value
// allocated to specifier q is, for iteration i, held in physical register
// (q - i) mod R. Unrolling time in the rotating frame, each physical
// register sees the value occupy the arc [start + q*II, end + q*II)
// modulo the circle of circumference R*II. Two values collide exactly
// when their arcs overlap on that circle, independent of the physical
// register, so allocation reduces to placing one arc per value with the
// free parameter q in {0..R-1}.
//
// The placement engine represents the circle as an occupancy bitmap
// (fit.go); reference_test.go keeps the original pairwise-arc
// implementation as the executable specification the bitmap core is
// differentially tested against.
package regalloc

import (
	"fmt"
	"slices"

	"ncdrf/internal/lifetime"
)

// Allocation is a successful rotating-file assignment.
type Allocation struct {
	// Registers is the number of rotating registers used.
	Registers int
	// II is the initiation interval the allocation was computed for.
	II int
	// Spec maps each allocated value (by producing node ID) to its
	// register specifier q.
	Spec map[int]int
}

// FirstFit allocates the lifetimes into the smallest rotating file the
// First Fit heuristic can manage, searching the file size upward from the
// average-live lower bound. An error is returned only for invalid input
// (non-positive II or a non-positive lifetime).
//
// The specifier map is built only for the successful size; Registers is
// the same search without it.
func FirstFit(lts []lifetime.Lifetime, ii int) (*Allocation, error) {
	st, r, err := search(lts, ii)
	if err != nil {
		return nil, err
	}
	spec := make(map[int]int, len(lts))
	if st != nil {
		for i := range st.order {
			spec[st.order[i].Node] = int(st.qs[i])
		}
		fitStates.Put(st)
	}
	return &Allocation{Registers: r, II: ii, Spec: spec}, nil
}

// Registers returns FirstFit's register count without materializing the
// specifier map: the requirement path only counts.
func Registers(lts []lifetime.Lifetime, ii int) (int, error) {
	st, r, err := search(lts, ii)
	if st != nil {
		fitStates.Put(st)
	}
	return r, err
}

// search is First Fit's upward register search: it validates the input
// and returns the smallest size r from the average-live and MaxLive
// lower bounds up at which the placement succeeds. The placement order
// is sorted once and one pooled fitState serves every size tried, each
// resuming past the crossing-free prefix of the size before (the prefix
// certificate, see tryFitFrom); it is returned holding the successful
// placement, for the caller to read and Put back, or nil when there are
// no lifetimes.
func search(lts []lifetime.Lifetime, ii int) (*fitState, int, error) {
	if ii < 1 {
		return nil, 0, fmt.Errorf("regalloc: II = %d", ii)
	}
	for _, l := range lts {
		if l.Len() <= 0 {
			return nil, 0, fmt.Errorf("regalloc: value %d has non-positive lifetime [%d,%d)", l.Node, l.Start, l.End)
		}
	}
	if len(lts) == 0 {
		return nil, 0, nil
	}
	low := lifetime.AvgLiveBound(lts, ii)
	if ml := lifetime.MaxLive(lts, ii); ml > low {
		low = ml
	}
	st := fitStates.Get().(*fitState)
	st.prepare(lts)
	for r := low; ; r++ {
		if st.tryFitFrom(ii, r, st.prefix) {
			return st, r, nil
		}
	}
}

// FitsIn reports whether First Fit succeeds with exactly r registers.
// First Fit is not monotone in r (TestFitterCertificateMatchesFitsIn
// pins sets that fit at r, fail at r+1 and fit again), so a success at
// r says nothing by itself about r+1; only the prefix certificate
// carries a placement across budgets (see Fitter). This is the fit-test
// path: no specifier map is materialized, only the placement
// feasibility is computed, on an arena borrowed from the pool. core's
// round fits ask a Fitter, the benchmark probe times FitsIn.
func FitsIn(lts []lifetime.Lifetime, ii, r int) bool {
	if len(lts) == 0 {
		return true
	}
	if r < lifetime.AvgLiveBound(lts, ii) {
		return false
	}
	st := fitStates.Get().(*fitState)
	st.prepare(lts)
	ok := st.tryFitFrom(ii, r, 0)
	fitStates.Put(st)
	return ok
}

// Fitter is FitsIn for one lifetime set and many budgets. It sorts the
// First Fit placement order once per Reset, on its first placement,
// into an arena of its own; Reset reuses that arena for the next set,
// which is how the spill walk keeps one Fitter per region across its
// rounds. Not safe for concurrent use.
//
// Two budgets share work through the prefix certificate (tryFitFrom):
// the values its last placement put down before the first crossing
// place identically at every larger budget. So a budget above the last
// placed one re-marks that prefix and resumes after it, and a smaller
// budget places from scratch. When the prefix is the whole set — every
// lifetime starts in [0, r*II) and every probed interval ends by r*II —
// the fit at r is wrap-free and the same placement fits every r' > r:
// the Fitter records the smallest such r and answers every larger
// budget true without a placement.
type Fitter struct {
	lts      []lifetime.Lifetime
	ii, low  int
	tests    int      // placements run since Reset
	placedAt int      // budget of the last placement
	fitsFrom int      // smallest wrap-free fitting budget; 0 when none
	st       fitState // own arena, prepared on the first placement
}

// Reset points f at lts and interval ii, reusing its arena.
func (f *Fitter) Reset(lts []lifetime.Lifetime, ii int) {
	f.lts, f.ii, f.tests, f.fitsFrom = lts, ii, 0, 0
	if len(lts) > 0 {
		f.low = lifetime.AvgLiveBound(lts, ii)
	}
}

// FitsIn reports whether First Fit succeeds with exactly r registers
// for the lifetimes f was Reset to. The answer always equals FitsIn's;
// budgets at or above a wrap-free fit are answered by the certificate.
func (f *Fitter) FitsIn(r int) bool {
	if len(f.lts) == 0 {
		return true
	}
	if r < f.low {
		return false
	}
	if f.fitsFrom > 0 && r >= f.fitsFrom {
		return true
	}
	k := 0
	if f.tests == 0 {
		f.st.prepare(f.lts)
	} else if r > f.placedAt {
		k = f.st.prefix
	}
	f.tests++
	f.placedAt = r
	ok := f.st.tryFitFrom(f.ii, r, k)
	if ok && f.st.prefix == len(f.st.order) {
		f.fitsFrom = r // below any earlier one, or that would have answered
	}
	return ok
}

// Validate checks that an allocation is conflict-free for the given
// lifetimes: all arcs pairwise disjoint on the circle of circumference
// Registers*II. The check is a sweep line over the sorted arc endpoints
// (each arc contributes at most two linear segments after unwrapping),
// O(n log n) instead of the reference's O(n^2) pairwise comparison
// (equivalence pinned by fit_diff_test.go).
func (a *Allocation) Validate(lts []lifetime.Lifetime) error {
	if a.Registers == 0 {
		if len(lts) != 0 {
			return fmt.Errorf("regalloc: empty allocation for %d values", len(lts))
		}
		return nil
	}
	c := a.Registers * a.II
	type seg struct{ start, end, idx int }
	segs := make([]seg, 0, 2*len(lts))
	for i, l := range lts {
		q, ok := a.Spec[l.Node]
		if !ok {
			return fmt.Errorf("regalloc: value %d not allocated", l.Node)
		}
		if q < 0 || q >= a.Registers {
			return fmt.Errorf("regalloc: value %d has specifier %d outside [0,%d)", l.Node, q, a.Registers)
		}
		if l.Len() > c {
			return fmt.Errorf("regalloc: value %d lifetime %d exceeds circle %d", l.Node, l.Len(), c)
		}
		length := l.Len()
		if length < 1 {
			continue // an empty arc cannot collide
		}
		s := mod(l.Start+q*a.II, c)
		if s+length <= c {
			segs = append(segs, seg{s, s + length, i})
		} else {
			segs = append(segs, seg{s, c, i}, seg{0, s + length - c, i})
		}
	}
	slices.SortFunc(segs, func(x, y seg) int {
		if x.start != y.start {
			return x.start - y.start
		}
		if x.end != y.end {
			return x.end - y.end
		}
		return x.idx - y.idx
	})
	maxEnd, maxIdx := -1, -1
	for _, sg := range segs {
		if sg.start < maxEnd && sg.idx != maxIdx {
			i, j := maxIdx, sg.idx
			if i > j {
				i, j = j, i
			}
			return fmt.Errorf("regalloc: values %d and %d collide", lts[i].Node, lts[j].Node)
		}
		if sg.end > maxEnd {
			maxEnd, maxIdx = sg.end, sg.idx
		}
	}
	return nil
}
