package regalloc

import (
	"math/bits"
	"slices"
	"sync"

	"ncdrf/internal/lifetime"
)

// The bitset-circle fit core. The wand model reduces allocation to
// placing one arc per value on a circle of circumference C = R*II; this
// file represents that circle as a []uint64 occupancy bitmap, so testing
// a specifier q is a masked scan of the candidate's C-modular interval
// against the bitmap instead of pairwise arc-overlap checks against
// everything placed so far. The reference implementation this replaces
// (reference_test.go) is O(values x R x placed) with three segment
// comparisons per placed arc; the bitmap test is O(len/64) words per
// probe, and a failed probe yields an exact jump over every later
// specifier whose interval provably covers the same occupied bit.
//
// Output is bit-for-bit identical to the reference: placement order,
// first-feasible specifier choice and the upward register search are
// unchanged, only the conflict test's representation differs
// (pinned corpus-wide by fit_diff_test.go).

// fitState is the per-call arena: the sorted placement order, the dense
// specifier results and the occupancy bitmap. States are pooled and
// reused across calls; every buffer only grows. Ownership rule: a state
// belongs to exactly one allocator call between Get and Put, and
// nothing loaned from the pool escapes — the returned Allocation copies
// the specifiers into a fresh map before the state goes back.
type fitState struct {
	order []lifetime.Lifetime // placement order, sorted once per call
	qs    []int32             // chosen specifier per order index
	occ   []uint64            // circle occupancy, C = R*II bits
	// prefix is the number of leading values of order the last
	// tryFitFrom placed with no crossing: none of them, nor any value
	// before them, started outside [0, C) or probed an interval running
	// past C. crossed is set by the first crossing of the placement.
	prefix  int
	crossed bool
	// placed counts the values placed since prepare, resumed prefixes
	// excluded; tests read it to pin that the upward search resumes.
	placed int
}

var fitStates = sync.Pool{New: func() any { return new(fitState) }}

// prepare copies the lifetimes and sorts them into First Fit's
// placement order: increasing start time, longer lifetime first. The
// order depends only on the inputs — never on R — which is what lets
// one sort serve every register size the upward search tries.
func (st *fitState) prepare(lts []lifetime.Lifetime) {
	st.order = append(st.order[:0], lts...)
	slices.SortFunc(st.order, func(a, b lifetime.Lifetime) int {
		if a.Start != b.Start {
			return a.Start - b.Start
		}
		if a.End != b.End {
			return b.End - a.End // longer lifetime first
		}
		return a.Node - b.Node
	})
	if cap(st.qs) < len(st.order) {
		st.qs = make([]int32, len(st.order))
	}
	st.qs = st.qs[:len(st.order)]
	st.prefix, st.placed = 0, 0
}

// tryFitFrom attempts placement with exactly r registers, recording
// specifiers in st.qs and the crossing-free prefix in st.prefix. The
// order must have been prepared and be non-empty, and k must not
// exceed the prefix of a placement at some r0 <= r: order[:k] is then
// re-marked at its recorded specifiers without a probe and placement
// resumes at k.
//
// The prefix certificate. A value placed without a crossing at r0
// starts in [0, r0*II), and every interval it probed ended by r0*II.
// At r >= r0 its start reduces to itself and each probe stays linear,
// so if the values before it occupy the same bits, every conflict
// offset, every specifier jump and the chosen q < r0 <= r are the
// same. By induction the whole prefix places identically at every
// larger size, where it is crossing-free again: the prefix never
// shrinks as r grows.
func (st *fitState) tryFitFrom(ii, r, k int) bool {
	st.prefix, st.crossed = k, false
	c := r * ii
	if c < 1 {
		return false
	}
	st.occ = clearWords(st.occ, (c+63)>>6)
	for i := range st.order[:k] {
		l := &st.order[i]
		st.mark(l.Start+int(st.qs[i])*ii, l.End-l.Start, c)
	}
	for i := k; i < len(st.order); i++ {
		st.placed++
		l := &st.order[i]
		length := l.End - l.Start
		if length > c {
			return false // a single wand cannot exceed the circle
		}
		if l.Start < 0 || l.Start >= c {
			st.crossed = true
		}
		p0 := mod(l.Start, c)
		q, p := st.firstQ(p0, length, ii, r, c)
		if q < 0 {
			return false
		}
		st.qs[i] = int32(q)
		st.mark(p, length, c)
		if !st.crossed {
			st.prefix = i + 1
		}
	}
	return true
}

// firstQ returns the smallest specifier whose interval [p0+q*ii,
// p0+q*ii+length) mod c is entirely free, with its start position, or
// (-1, 0). A conflict at circular offset d from the candidate start
// rules out every later specifier whose start lands within (d-length,
// d] of the current one — those intervals still cover the occupied bit
// — so the scan jumps d/ii specifiers at once instead of re-probing
// each.
func (st *fitState) firstQ(p0, length, ii, r, c int) (int, int) {
	for q := 0; q < r; {
		p := p0 + q*ii
		if p+length > c {
			st.crossed = true
		}
		if p >= c {
			p -= c
		}
		d := st.conflict(p, length, c)
		if d < 0 {
			return q, p
		}
		q += d/ii + 1
	}
	return -1, 0
}

// conflict returns the largest offset d in [0, length) such that bit
// (p+d) mod c of the occupancy bitmap is set, or -1 when the whole
// interval is free. Returning the highest conflicting offset maximizes
// firstQ's jump.
func (st *fitState) conflict(p, length, c int) int {
	if p+length <= c {
		if hb := highestSet(st.occ, p, p+length); hb >= 0 {
			return hb - p
		}
		return -1
	}
	if hb := highestSet(st.occ, 0, p+length-c); hb >= 0 {
		return hb + c - p
	}
	if hb := highestSet(st.occ, p, c); hb >= 0 {
		return hb - p
	}
	return -1
}

// mark sets the candidate's interval [p, p+length) mod c in the
// occupancy bitmap.
func (st *fitState) mark(p, length, c int) {
	if length < 1 {
		return
	}
	if p+length <= c {
		setRange(st.occ, p, p+length)
		return
	}
	setRange(st.occ, p, c)
	setRange(st.occ, 0, p+length-c)
}

// clearWords returns w resized to n words, all zero, reusing its
// backing array when it is large enough.
func clearWords(w []uint64, n int) []uint64 {
	if cap(w) < n {
		return make([]uint64, n)
	}
	w = w[:n]
	clear(w)
	return w
}

// setRange sets bits [a, b) of w; a < b required.
func setRange(w []uint64, a, b int) {
	aw, bw := a>>6, (b-1)>>6
	lo := ^uint64(0) << uint(a&63)
	hi := ^uint64(0) >> uint(63-(b-1)&63)
	if aw == bw {
		w[aw] |= lo & hi
		return
	}
	w[aw] |= lo
	for i := aw + 1; i < bw; i++ {
		w[i] = ^uint64(0)
	}
	w[bw] |= hi
}

// highestSet returns the index of the highest set bit in [a, b) of w,
// or -1. It scans whole words from the top, so long free runs cost one
// comparison per 64 bits.
func highestSet(w []uint64, a, b int) int {
	if a >= b {
		return -1
	}
	aw, bw := a>>6, (b-1)>>6
	lo := ^uint64(0) << uint(a&63)
	hi := ^uint64(0) >> uint(63-(b-1)&63)
	if aw == bw {
		if v := w[aw] & lo & hi; v != 0 {
			return aw<<6 + 63 - bits.LeadingZeros64(v)
		}
		return -1
	}
	if v := w[bw] & hi; v != 0 {
		return bw<<6 + 63 - bits.LeadingZeros64(v)
	}
	for i := bw - 1; i > aw; i-- {
		if v := w[i]; v != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(v)
		}
	}
	if v := w[aw] & lo; v != 0 {
		return aw<<6 + 63 - bits.LeadingZeros64(v)
	}
	return -1
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
