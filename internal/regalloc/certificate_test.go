package regalloc_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// checkFitter asks one Fitter every budget of rs in the given order and
// fails on any answer that differs from want, a fresh FitsIn per budget.
func checkFitter(t *testing.T, f *regalloc.Fitter, name string, lts []lifetime.Lifetime, ii int, rs []int, want map[int]bool) {
	t.Helper()
	f.Reset(lts, ii)
	for _, r := range rs {
		if got := f.FitsIn(r); got != want[r] {
			t.Fatalf("%s: Fitter.FitsIn(%d) = %v after asking %v, fresh FitsIn %v", name, r, got, rs, want[r])
		}
	}
}

// TestFitterCertificateMatchesFitsIn pins the prefix and wrap-free
// certificates: over the kernels and a 400-loop synthetic corpus on
// both evaluation machines, for the Unified lifetime set, the global
// region and every cluster's local region, a Fitter asked every budget
// from below MaxLive to 256 in
// ascending, descending and shuffled order answers exactly what a fresh
// FitsIn and the reference answer. On the dense fit axis 56:256:8,
// asked in ascending order as a curve asks it, the certificate must
// save most placements, so it cannot silently become dead code. The
// corpus alone does not catch a certificate that ignores wrapping; the
// hand-built sets of checkWrappedFits do.
func TestFitterCertificateMatchesFitsIn(t *testing.T) {
	t.Run("wrapped", checkWrappedFits)
	p := loopgen.Defaults()
	p.Loops = 400
	if testing.Short() {
		p.Loops = 100
	}
	corpus := append(loops.Kernels(), loopgen.Generate(p)...)
	var axis []int
	for r := 56; r <= 256; r += 8 {
		axis = append(axis, r)
	}
	for i, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			var f regalloc.Fitter
			rng := rand.New(rand.NewSource(int64(i)))
			asks, placements := 0, 0
			for _, g := range corpus {
				s, err := sched.Run(g.Clone(), m, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				lts := lifetime.Compute(s)
				cl := core.Classify(s, lts)
				sets := append([][]lifetime.Lifetime{lts, cl.GlobalLts}, cl.LocalLts...)
				for k, set := range sets {
					if len(set) == 0 {
						continue
					}
					name := fmt.Sprintf("%s on %s, set %d", g.LoopName, m.Name(), k)
					lo := lifetime.MaxLive(set, s.II) - 2
					want := map[int]bool{}
					var up []int
					for r := lo; r <= 256; r++ {
						want[r] = regalloc.FitsIn(set, s.II, r)
						if ref := regalloc.RefFitsIn(set, s.II, r); ref != want[r] {
							t.Fatalf("%s: FitsIn(%d) = %v, reference %v", name, r, want[r], ref)
						}
						up = append(up, r)
					}
					checkFitter(t, &f, name, set, s.II, up, want)
					down := slices.Clone(up)
					slices.Reverse(down)
					checkFitter(t, &f, name, set, s.II, down, want)
					shuffled := slices.Clone(up)
					rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
					checkFitter(t, &f, name, set, s.II, shuffled, want)

					f.Reset(set, s.II)
					for _, r := range axis {
						if f.FitsIn(r) != regalloc.FitsIn(set, s.II, r) {
							t.Fatalf("%s: Fitter disagrees with FitsIn at %d on the fit axis", name, r)
						}
					}
					asks += len(axis)
					placements += f.Placements()
				}
			}
			t.Logf("fit axis 56:256:8: %d asks, %d placements", asks, placements)
			if placements*4 > asks {
				t.Fatalf("fit axis 56:256:8: %d placements for %d asks; the certificate should answer most", placements, asks)
			}
		})
	}
}

// checkWrappedFits pins the two ways a placement can wrap, each with a
// lifetime set on which First Fit is not monotone in r: it fits at r0,
// fails at r0+1 and fits again later. Certifying the fit at r0 would
// answer r0+1 wrongly, so neither may certify: in the first set a
// lifetime starts beyond the circle of the smallest fit, in the second
// a probe runs past its end.
func checkWrappedFits(t *testing.T) {
	lt := func(node, start, end int) lifetime.Lifetime {
		return lifetime.Lifetime{Node: node, Start: start, End: end}
	}
	for _, tc := range []struct {
		name string
		ii   int
		lts  []lifetime.Lifetime
		r0   int
	}{
		{"start beyond the circle", 1, []lifetime.Lifetime{lt(0, 0, 1), lt(1, 9, 10), lt(2, 10, 13)}, 5},
		{"probe past the end", 2, []lifetime.Lifetime{lt(0, 1, 2), lt(1, 11, 13), lt(2, 4, 8), lt(3, 7, 9), lt(4, 8, 10)}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[int]bool{}
			var up []int
			for r := 1; r <= 16; r++ {
				want[r] = regalloc.FitsIn(tc.lts, tc.ii, r)
				up = append(up, r)
			}
			if !want[tc.r0] || want[tc.r0+1] {
				t.Fatalf("FitsIn over 1..16 = %v: want a smallest fit at %d that fails at %d", want, tc.r0, tc.r0+1)
			}
			for r := 1; r < tc.r0; r++ {
				if want[r] {
					t.Fatalf("FitsIn(%d) = true, want the smallest fit at %d", r, tc.r0)
				}
			}
			var f regalloc.Fitter
			checkFitter(t, &f, tc.name, tc.lts, tc.ii, up, want)
		})
	}
}
