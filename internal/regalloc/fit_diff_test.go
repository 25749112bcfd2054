package regalloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// specEqual reports whether two allocations agree exactly.
func specEqual(a, b *Allocation) error {
	if a.Registers != b.Registers {
		return fmt.Errorf("Registers %d != %d", a.Registers, b.Registers)
	}
	if a.II != b.II {
		return fmt.Errorf("II %d != %d", a.II, b.II)
	}
	if len(a.Spec) != len(b.Spec) {
		return fmt.Errorf("Spec size %d != %d", len(a.Spec), len(b.Spec))
	}
	for node, q := range a.Spec {
		if bq, ok := b.Spec[node]; !ok || bq != q {
			return fmt.Errorf("Spec[%d] = %d vs %d (present %v)", node, q, bq, ok)
		}
	}
	return nil
}

// TestDifferentialCorpusAllocator pins the bitset core bit-for-bit
// against the reference implementation over the full kernels corpus —
// both evaluation machines, on the complete lifetime set of each
// kernel's schedule. The corpus spans kernels that fit
// comfortably and kernels that spill at paper-scale budgets, so both
// the dense low-R placements and the sparse high-R ones are covered.
func TestDifferentialCorpusAllocator(t *testing.T) {
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for _, g := range loops.Kernels() {
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			lts := lifetime.Compute(s)
			got, err := FirstFit(lts, s.II)
			if err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			want, err := refFirstFit(lts, s.II)
			if err != nil {
				t.Fatalf("%s on %s: reference: %v", g.LoopName, m.Name(), err)
			}
			if err := specEqual(got, want); err != nil {
				t.Fatalf("%s on %s: %v", g.LoopName, m.Name(), err)
			}
			if err := got.Validate(lts); err != nil {
				t.Fatalf("%s on %s: invalid: %v", g.LoopName, m.Name(), err)
			}
			if n, err := Registers(lts, s.II); err != nil || n != want.Registers {
				t.Fatalf("%s on %s: Registers = %d, %v; want %d", g.LoopName, m.Name(), n, err, want.Registers)
			}
			// The fit-test path: FitsIn must flip at the same boundary,
			// probed around the allocator's register count.
			for r := want.Registers - 3; r <= want.Registers+3; r++ {
				if FitsIn(lts, s.II, r) != refFitsIn(lts, s.II, r) {
					t.Fatalf("%s on %s: FitsIn(%d) diverges", g.LoopName, m.Name(), r)
				}
			}
		}
	}
}

// TestDifferentialRandomizedAllocator hammers the core with randomized
// lifetimes — clustered starts, long loop-carried ranges, duplicate
// intervals. Run under -race in CI (the pooled
// fitState arena must stay race-free across concurrent allocator
// callers; the t.Parallel subtests share the pool).
func TestDifferentialRandomizedAllocator(t *testing.T) {
	for shard := 0; shard < 4; shard++ {
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(1000 + shard)))
			for trial := 0; trial < 150; trial++ {
				lts, ii := randomDiffLifetimes(r)
				got, err := FirstFit(lts, ii)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				want, err := refFirstFit(lts, ii)
				if err != nil {
					t.Fatalf("trial %d: reference: %v", trial, err)
				}
				if err := specEqual(got, want); err != nil {
					t.Fatalf("trial %d (ii=%d, %v): %v", trial, ii, lts, err)
				}
				if n, err := Registers(lts, ii); err != nil || n != want.Registers {
					t.Fatalf("trial %d: Registers = %d, %v; want %d", trial, n, err, want.Registers)
				}
				for r2 := got.Registers - 2; r2 <= got.Registers+2; r2++ {
					if FitsIn(lts, ii, r2) != refFitsIn(lts, ii, r2) {
						t.Fatalf("trial %d: FitsIn(%d) diverges (ii=%d, %v)", trial, r2, ii, lts)
					}
				}
				var rs []int
				for r2 := max(got.Registers-4, 1); r2 <= got.Registers+4; r2++ {
					rs = append(rs, r2)
				}
				checkAskOrders(t, r, fmt.Sprintf("trial %d (ii=%d, %v)", trial, ii, lts), lts, ii, rs)
			}
		})
	}
}

// checkAskOrders asks one Fitter every budget of rs in ascending,
// descending and shuffled order: each answer must equal the reference
// and a fresh FitsIn, whatever the Fitter placed before it.
func checkAskOrders(t *testing.T, rng *rand.Rand, name string, lts []lifetime.Lifetime, ii int, rs []int) {
	t.Helper()
	want := map[int]bool{}
	for _, r := range rs {
		want[r] = refFitsIn(lts, ii, r)
		if got := FitsIn(lts, ii, r); got != want[r] {
			t.Fatalf("%s: FitsIn(%d) = %v, reference %v", name, r, got, want[r])
		}
	}
	down := slices.Clone(rs)
	slices.Reverse(down)
	shuffled := slices.Clone(rs)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	var f Fitter
	for _, asks := range [][]int{rs, down, shuffled} {
		f.Reset(lts, ii)
		for _, r := range asks {
			if got := f.FitsIn(r); got != want[r] {
				t.Fatalf("%s: Fitter.FitsIn(%d) = %v after asking %v, reference %v", name, r, got, asks, want[r])
			}
		}
	}
}

// TestPrefixCertificateMidOrder pins the prefix certificate on
// hand-built sets whose first crossing sits mid-order: at some size the
// placement puts down a crossing-free prefix and then a value that
// starts beyond the circle or probes past its end. The upward search
// and a Fitter asked in every order must still answer what the
// reference answers; a resume that kept the crossing value, or a
// prefix kept for a smaller budget, diverges on these sets.
func TestPrefixCertificateMidOrder(t *testing.T) {
	lt := func(node, start, end int) lifetime.Lifetime {
		return lifetime.Lifetime{Node: node, Start: start, End: end}
	}
	rng := rand.New(rand.NewSource(5))
	for i, tc := range []struct {
		ii  int
		lts []lifetime.Lifetime
	}{
		{1, []lifetime.Lifetime{lt(0, 7, 9), lt(1, 2, 3), lt(2, 4, 5), lt(3, 0, 1), lt(4, 6, 9)}},
		{2, []lifetime.Lifetime{lt(0, 4, 5), lt(1, 0, 1), lt(2, 3, 5), lt(3, 6, 8)}},
		{2, []lifetime.Lifetime{lt(0, 5, 9), lt(1, 0, 1), lt(2, 6, 8), lt(3, 0, 1)}},
		{2, []lifetime.Lifetime{lt(0, 7, 10), lt(1, 7, 11), lt(2, 6, 8), lt(3, 7, 10), lt(4, 1, 3), lt(5, 7, 9)}},
	} {
		name := fmt.Sprintf("set %d (ii=%d, %v)", i, tc.ii, tc.lts)
		var st fitState
		st.prepare(tc.lts)
		mid := false
		var rs []int
		for r := 1; r <= 16; r++ {
			st.tryFitFrom(tc.ii, r, 0)
			mid = mid || st.prefix > 0 && st.prefix < len(tc.lts)
			rs = append(rs, r)
		}
		if !mid {
			t.Fatalf("%s: no size puts the first crossing mid-order", name)
		}
		got, err := FirstFit(tc.lts, tc.ii)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refFirstFit(tc.lts, tc.ii)
		if err != nil {
			t.Fatal(err)
		}
		if err := specEqual(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAskOrders(t, rng, name, tc.lts, tc.ii, rs)
	}
}

// TestSearchResumesPastPrefix pins that the upward search resumes: over
// the kernels and a synthetic corpus on both evaluation machines, on
// every Unified lifetime set, it must choose what the reference chooses
// while placing well under the values a from-scratch placement at every
// size it tries would place. The ceilings sit above the measured shares
// (0.34 on eval-L3 and 0.20 on eval-L6 at 400 loops), so a resume that
// stopped working fails here rather than only costing time.
func TestSearchResumesPastPrefix(t *testing.T) {
	spec := loopgen.Defaults()
	spec.Loops = 400
	if testing.Short() {
		spec.Loops = 100
	}
	corpus := append(loops.Kernels(), loopgen.Generate(spec)...)
	for _, tc := range []struct {
		m       *machine.Config
		ceiling float64
	}{{machine.Eval(3), 0.45}, {machine.Eval(6), 0.3}} {
		t.Run(tc.m.Name(), func(t *testing.T) {
			t.Parallel()
			var scratch fitState
			resumed, full := 0, 0
			for _, g := range corpus {
				s, err := sched.Run(g.Clone(), tc.m, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				lts := lifetime.Compute(s)
				want, err := refFirstFit(lts, s.II)
				if err != nil {
					t.Fatal(err)
				}
				got, err := FirstFit(lts, s.II)
				if err != nil {
					t.Fatal(err)
				}
				if err := specEqual(got, want); err != nil {
					t.Fatalf("%s on %s: %v", g.LoopName, tc.m.Name(), err)
				}
				st, r, _ := search(lts, s.II)
				if st == nil {
					continue
				}
				resumed += st.placed
				fitStates.Put(st)
				scratch.prepare(lts)
				low := max(lifetime.AvgLiveBound(lts, s.II), lifetime.MaxLive(lts, s.II))
				for size := low; size <= r; size++ {
					scratch.tryFitFrom(s.II, size, 0)
				}
				full += scratch.placed
			}
			share := float64(resumed) / float64(full)
			t.Logf("%d values placed, %d from scratch (%.2f)", resumed, full, share)
			if share > tc.ceiling {
				t.Fatalf("search placed %d values where placing from scratch takes %d: share %.2f above %.2f", resumed, full, share, tc.ceiling)
			}
		})
	}
}

func mustRegs(t *testing.T, lts []lifetime.Lifetime, ii int) int {
	t.Helper()
	a, err := FirstFit(lts, ii)
	if err != nil {
		t.Fatal(err)
	}
	return a.Registers
}

// randomDiffLifetimes draws a harsher distribution than the property
// tests' randomLifetimes: more values, wider starts, occasional
// duplicated intervals and lifetimes spanning many iterations.
func randomDiffLifetimes(r *rand.Rand) ([]lifetime.Lifetime, int) {
	ii := 1 + r.Intn(8)
	n := 1 + r.Intn(24)
	lts := make([]lifetime.Lifetime, n)
	for i := range lts {
		s := r.Intn(40)
		length := 1 + r.Intn(4*ii+20)
		if i > 0 && r.Intn(6) == 0 {
			// Duplicate a previous interval under a fresh node: exercises
			// placement-order tie-breaking.
			lts[i] = lifetime.Lifetime{Node: i, Start: lts[i-1].Start, End: lts[i-1].End}
			continue
		}
		lts[i] = lifetime.Lifetime{Node: i, Start: s, End: s + length}
	}
	return lts, ii
}

// TestValidateSweepEquivalence pins the sweep-line Validate against the
// pairwise reference: same accept/reject verdict on valid allocations,
// corrupted specifiers, and adversarial hand-built cases.
func TestValidateSweepEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		lts, ii := randomDiffLifetimes(r)
		a, err := FirstFit(lts, ii)
		if err != nil {
			t.Fatal(err)
		}
		checkValidateAgree(t, a, lts)
		// Corrupt one specifier: usually introduces a collision, and both
		// implementations must agree either way.
		if len(lts) > 1 {
			bad := &Allocation{Registers: a.Registers, II: a.II, Spec: map[int]int{}}
			for k, v := range a.Spec {
				bad.Spec[k] = v
			}
			victim := lts[r.Intn(len(lts))].Node
			bad.Spec[victim] = r.Intn(a.Registers)
			checkValidateAgree(t, bad, lts)
		}
		// Shrink the file without remapping: out-of-range specifiers and
		// over-length lifetimes must be rejected identically.
		if a.Registers > 1 {
			shrunk := &Allocation{Registers: a.Registers - 1, II: a.II, Spec: a.Spec}
			checkValidateAgree(t, shrunk, lts)
		}
	}
	// Wraparound collision: two arcs meeting only across the circle seam.
	lts := []lifetime.Lifetime{
		{Node: 0, Start: 10, End: 16}, // wraps on c=12
		{Node: 1, Start: 1, End: 3},
	}
	wrap := &Allocation{Registers: 3, II: 4, Spec: map[int]int{0: 0, 1: 0}}
	checkValidateAgree(t, wrap, lts)
	if err := wrap.Validate(lts); err == nil {
		t.Fatal("Validate missed a wraparound collision")
	}
}

func checkValidateAgree(t *testing.T, a *Allocation, lts []lifetime.Lifetime) {
	t.Helper()
	got, want := a.Validate(lts), refValidate(a, lts)
	if (got == nil) != (want == nil) {
		t.Fatalf("Validate disagrees with reference: sweep=%v pairwise=%v (alloc %+v, lts %v)",
			got, want, a, lts)
	}
}

// TestFitStateBitmapOps unit-tests the word-level primitives at the
// boundaries the fuzzing above might only graze: word seams, full
// words, single bits, wrapping intervals.
func TestFitStateBitmapOps(t *testing.T) {
	w := make([]uint64, 3)
	setRange(w, 0, 192)
	for i, v := range w {
		if v != ^uint64(0) {
			t.Fatalf("word %d = %x after full setRange", i, v)
		}
	}
	w = make([]uint64, 3)
	setRange(w, 63, 65) // straddles the first word seam
	if w[0] != 1<<63 || w[1] != 1 || w[2] != 0 {
		t.Fatalf("seam setRange: %x %x %x", w[0], w[1], w[2])
	}
	if got := highestSet(w, 0, 192); got != 64 {
		t.Fatalf("highestSet = %d, want 64", got)
	}
	if got := highestSet(w, 0, 64); got != 63 {
		t.Fatalf("highestSet below seam = %d, want 63", got)
	}
	if got := highestSet(w, 65, 192); got != -1 {
		t.Fatalf("highestSet above = %d, want -1", got)
	}
	if got := highestSet(w, 64, 64); got != -1 {
		t.Fatalf("empty range = %d, want -1", got)
	}

	// conflict over a wrapping interval: occupied bit only reachable
	// through the seam.
	st := &fitState{occ: make([]uint64, 2)}
	setRange(st.occ, 2, 4) // bits 2,3 on a circle of c=100
	if d := st.conflict(96, 10, 100); d != 7 {
		// interval [96,100)+[0,6): highest conflict is bit 3, offset 3+100-96.
		t.Fatalf("wrap conflict = %d, want 7", d)
	}
	if d := st.conflict(4, 10, 100); d != -1 {
		t.Fatalf("free interval conflict = %d, want -1", d)
	}
	if d := st.conflict(0, 3, 100); d != 2 {
		t.Fatalf("conflict = %d, want 2", d)
	}

}
