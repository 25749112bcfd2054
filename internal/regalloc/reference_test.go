package regalloc

import (
	"fmt"
	"sort"

	"ncdrf/internal/lifetime"
)

// The pre-bitset allocator, kept verbatim as the executable
// specification of the fit core in fit.go. Every placement decision the
// optimized allocator makes is pinned against these functions by the
// differential tests (fit_diff_test.go): same Registers, same Spec,
// over the kernels corpus and randomized lifetimes.
// Nothing here is reachable from production paths.

// arc is a placed interval on the allocation circle.
type arc struct {
	start, end int // end may exceed the circumference; interpreted mod C
}

// overlaps reports whether two arcs intersect on a circle of
// circumference c. Arcs are half-open [start, end).
func (a arc) overlaps(b arc, c int) bool {
	// Compare every pair of translates within one period.
	as, ae := mod(a.start, c), a.end-a.start
	bs, be := mod(b.start, c), b.end-b.start
	// a occupies [as, as+ae), b occupies [bs, bs+be) on the line after
	// normalizing; wrapping handled by also checking the +c translate.
	return segOverlap(as, as+ae, bs, bs+be) ||
		segOverlap(as, as+ae, bs+c, bs+c+be) ||
		segOverlap(as+c, as+c+ae, bs, bs+be)
}

func segOverlap(a0, a1, b0, b1 int) bool { return a0 < b1 && b0 < a1 }

// refFirstFit is the reference FirstFit: upward register search over
// refTryFit.
func refFirstFit(lts []lifetime.Lifetime, ii int) (*Allocation, error) {
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
	for r := low; ; r++ {
		if spec, ok := refTryFit(lts, ii, r); ok {
			return &Allocation{Registers: r, II: ii, Spec: spec}, nil
		}
	}
}

// refFitsIn is the reference FitsIn.
func refFitsIn(lts []lifetime.Lifetime, ii, r int) bool {
	if len(lts) == 0 {
		return true
	}
	if r < lifetime.AvgLiveBound(lts, ii) {
		return false
	}
	_, ok := refTryFit(lts, ii, r)
	return ok
}

// refTryFit attempts First Fit placement with exactly r registers:
// values in increasing start-time order, each given the smallest
// specifier q whose arc avoids all previously placed arcs.
func refTryFit(lts []lifetime.Lifetime, ii, r int) (map[int]int, bool) {
	c := r * ii
	order := append([]lifetime.Lifetime(nil), lts...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Start != order[j].Start {
			return order[i].Start < order[j].Start
		}
		if order[i].End != order[j].End {
			return order[i].End > order[j].End // longer lifetime first
		}
		return order[i].Node < order[j].Node
	})
	var placed []arc
	spec := make(map[int]int, len(order))
	for _, l := range order {
		if l.Len() > c {
			return nil, false // a single wand cannot exceed the circle
		}
		found := false
		for q := 0; q < r; q++ {
			cand := arc{start: l.Start + q*ii, end: l.End + q*ii}
			ok := true
			for _, p := range placed {
				if cand.overlaps(p, c) {
					ok = false
					break
				}
			}
			if ok {
				placed = append(placed, cand)
				spec[l.Node] = q
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return spec, true
}

// refValidate is the reference Validate: O(n^2) pairwise arc overlap.
func refValidate(a *Allocation, lts []lifetime.Lifetime) error {
	if a.Registers == 0 {
		if len(lts) != 0 {
			return fmt.Errorf("regalloc: empty allocation for %d values", len(lts))
		}
		return nil
	}
	c := a.Registers * a.II
	arcs := make([]arc, 0, len(lts))
	for _, l := range lts {
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
		arcs = append(arcs, arc{start: l.Start + q*a.II, end: l.End + q*a.II})
	}
	for i := 0; i < len(arcs); i++ {
		for j := i + 1; j < len(arcs); j++ {
			if arcs[i].overlaps(arcs[j], c) {
				return fmt.Errorf("regalloc: values %d and %d collide", lts[i].Node, lts[j].Node)
			}
		}
	}
	return nil
}
