package regalloc

import (
	"fmt"
	"testing"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// TestFitterMatchesFitsIn pins the prepared First Fit fitter to FitsIn
// (and its reference) over the kernel-corpus schedules on both
// evaluation machines: every r from 3 below both MaxLive and
// AvgLiveBound to the First Fit requirement + 3, plus an empty lifetime
// set. One Fitter per subtest is Reset from schedule to schedule, so
// stale buffers would surface; the subtests run in parallel, alongside
// FitsIn's pooled arenas, which -race watches.
func TestFitterMatchesFitsIn(t *testing.T) {
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			var f Fitter
			check := func(name string, lts []lifetime.Lifetime, ii, lo, hi int) {
				f.Reset(lts, ii)
				for r := hi; r >= lo; r-- {
					want := FitsIn(lts, ii, r)
					if got := f.FitsIn(r); got != want {
						t.Fatalf("%s: Fitter.FitsIn(%d) = %v, FitsIn %v", name, r, got, want)
					}
					if ref := refFitsIn(lts, ii, r); ref != want {
						t.Fatalf("%s: FitsIn(%d) = %v, reference %v", name, r, want, ref)
					}
				}
			}
			for _, g := range loops.Kernels() {
				s, err := sched.Run(g, m, sched.Options{})
				if err != nil {
					t.Fatal(err)
				}
				lts := lifetime.Compute(s)
				lo := min(lifetime.MaxLive(lts, s.II), lifetime.AvgLiveBound(lts, s.II)) - 3
				check(fmt.Sprintf("%s on %s", g.LoopName, m.Name()), lts, s.II, lo, mustRegs(t, lts, s.II)+3)
				check("no values", nil, s.II, -1, 3)
			}
		})
	}
	var f Fitter
	f.Reset(nil, 4)
	if f.FitsIn(0) != FitsIn(nil, 4, 0) {
		t.Fatal("a fresh Fitter on an empty set disagrees with FitsIn")
	}
}
