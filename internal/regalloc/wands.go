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
// The placement order is sorted once and one pooled fitState serves
// every size tried; the specifier map is built only for the successful
// size.
func FirstFit(lts []lifetime.Lifetime, ii int) (*Allocation, error) {
	if ii < 1 {
		return nil, fmt.Errorf("regalloc: II = %d", ii)
	}
	for _, l := range lts {
		if l.Len() <= 0 {
			return nil, fmt.Errorf("regalloc: value %d has non-positive lifetime [%d,%d)", l.Node, l.Start, l.End)
		}
	}
	if len(lts) == 0 {
		return &Allocation{Registers: 0, II: ii, Spec: map[int]int{}}, nil
	}
	low := lifetime.AvgLiveBound(lts, ii)
	if ml := lifetime.MaxLive(lts, ii); ml > low {
		low = ml
	}
	st := fitStates.Get().(*fitState)
	st.prepare(lts)
	for r := low; ; r++ {
		if st.tryFit(ii, r) {
			spec := make(map[int]int, len(st.order))
			for i := range st.order {
				spec[st.order[i].Node] = int(st.qs[i])
			}
			fitStates.Put(st)
			return &Allocation{Registers: r, II: ii, Spec: spec}, nil
		}
	}
}

// FitsIn reports whether First Fit succeeds with exactly r registers.
// First Fit is not monotone in r (TestFitterCertificateMatchesFitsIn
// pins sets that fit at r, fail at r+1 and fit again), so a success at
// r says nothing by itself about r+1; the Fitter's wrap-free
// certificate is the only inference across budgets this package makes.
// This is the fit-test path: no specifier map is materialized, only
// the placement feasibility is computed. It is a Fitter asked once;
// core's round fits ask a Fitter directly, the benchmark probe times
// FitsIn.
func FitsIn(lts []lifetime.Lifetime, ii, r int) bool {
	var f Fitter
	f.Reset(lts, ii)
	return f.FitsIn(r)
}

// Fitter is FitsIn for one lifetime set and many budgets. Its first test
// runs on an arena borrowed from the fitState pool for that call alone,
// so a set tested once costs what FitsIn costs. From the second test on,
// the Fitter sorts the First Fit placement order once into an arena of
// its own, and each budget only runs the placement. Reset reuses that
// arena for the next set, which is how the spill walk keeps one
// Fitter per region across its rounds. Not safe for concurrent use.
//
// Wrap-free certificate. A placement that succeeds at r without any
// probe crossing the end of the circle — every lifetime starts in
// [0, r*II) and every probed interval [Start+q*II, Start+q*II+len)
// ends by r*II — runs exactly the same probes at every r' > r: each
// start reduces to itself on both circles, every interval stays
// linear, so the occupancy bits, each conflict offset and hence each
// specifier jump are the same, and every chosen q < r <= r'. The Fitter
// records the smallest such r and answers every larger budget true
// without a placement. Budgets below it, and placements that wrapped,
// run as before.
type Fitter struct {
	lts      []lifetime.Lifetime
	ii, low  int
	tests    int      // placements run since Reset
	fitsFrom int      // smallest wrap-free fitting budget; 0 when none
	st       fitState // own arena, prepared on the second placement
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
	f.tests++
	switch f.tests {
	case 1:
		st := fitStates.Get().(*fitState)
		st.prepare(f.lts)
		ok := f.place(st, r)
		fitStates.Put(st)
		return ok
	case 2:
		f.st.prepare(f.lts)
	}
	return f.place(&f.st, r)
}

// place runs the placement at r on st and keeps a wrap-free fit as the
// certificate; r is below any earlier one, or that would have answered.
func (f *Fitter) place(st *fitState, r int) bool {
	ok := st.tryFit(f.ii, r)
	if ok && !st.crossed {
		f.fitsFrom = r
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
