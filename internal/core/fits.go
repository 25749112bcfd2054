package core

import (
	"cmp"
	"slices"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// Fit returns a fit predicate for the model, with the signature expected
// by the spill package: it reports whether the schedule's values can be
// allocated in regs registers (per subfile, for the dual organizations)
// and returns the schedule actually used (rebalanced for Swapped). It is
// the one-budget case of RoundFit, and safe for concurrent use.
func Fit(model Model) func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
	checkModel(model)
	return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
		return RoundFit(model)(s, lts)(regs)
	}
}

// RoundFit returns one model's fit test for a spill walk: the one-model
// case of RoundFits, with the same reuse rules.
func RoundFit(model Model) func(s *sched.Schedule, lts []lifetime.Lifetime) func(regs int) (*sched.Schedule, bool) {
	checkModel(model)
	rf := new(roundFit)
	test := func(regs int) (*sched.Schedule, bool) { return rf.fits(model, regs) }
	return func(s *sched.Schedule, lts []lifetime.Lifetime) func(int) (*sched.Schedule, bool) {
		rf.reset(s, lts)
		return test
	}
}

// RoundFits returns the fit test of every model for one spill walk, in
// the shape of spill.RoundFit: given a round's schedule and lifetimes it
// returns the per-(model, budget) test. Everything that does not depend
// on the budget — classification, the swap descent, the global region's
// First Fit allocation and each region's First Fit placement order — is
// computed at most once per round, on the first test that needs it, and
// shared by every model: Partitioned and Swapped classify the round
// once, and each budget's test of the round's own partition is answered
// once for both. Swapped keeps its per-budget choice of final schedule:
// the unswapped schedule when it fits, otherwise the swapped one.
//
// The returned function serves one walk: its buffers are reused from
// round to round, so a round's test is valid until the next round is
// prepared, and neither is safe for concurrent use.
func RoundFits() func(s *sched.Schedule, lts []lifetime.Lifetime) func(model Model, regs int) (*sched.Schedule, bool) {
	rf := new(roundFit)
	test := rf.fits
	return func(s *sched.Schedule, lts []lifetime.Lifetime) func(Model, int) (*sched.Schedule, bool) {
		rf.reset(s, lts)
		return test
	}
}

// roundFit is the state behind RoundFits: the current round's schedule
// and lifetimes, and the budget-independent work done for them so far.
type roundFit struct {
	s   *sched.Schedule
	lts []lifetime.Lifetime

	unified      regalloc.Fitter
	unifiedReady bool
	plainCl      Classification // the round's own partition
	plain        dualFit
	plainReady   bool
	swapped      *sched.Schedule // the swap-rebalanced schedule
	rebalancedCl Classification  // and its partition
	rebalanced   dualFit
	swappedReady bool
}

func checkModel(model Model) {
	if model < Ideal || model > Swapped {
		panic("core: RoundFit on unknown model")
	}
}

func (rf *roundFit) reset(s *sched.Schedule, lts []lifetime.Lifetime) {
	rf.s, rf.lts = s, lts
	rf.unifiedReady, rf.plainReady, rf.swappedReady = false, false, false
}

func (rf *roundFit) fits(model Model, regs int) (*sched.Schedule, bool) {
	s := rf.s
	switch model {
	case Ideal:
		return s, true
	case Unified:
		if !rf.unifiedReady {
			rf.unified.Reset(rf.lts, s.II)
			rf.unifiedReady = true
		}
		return s, rf.unified.FitsIn(regs)
	}
	checkModel(model) // Partitioned or Swapped from here on
	// Cheap path first: if the unswapped partition fits, accept.
	if !rf.plainReady {
		classifyInto(&rf.plainCl, s, rf.lts, nil)
		rf.plain.reset(&rf.plainCl)
		rf.plainReady = true
	}
	if ok := rf.plain.fits(regs); ok || model == Partitioned {
		return s, ok
	}
	if !rf.swappedReady {
		rf.swapped, _ = Swap(s, SwapOptions{})
		classifyInto(&rf.rebalancedCl, rf.swapped, rf.lts, nil)
		rf.rebalanced.reset(&rf.rebalancedCl)
		rf.swappedReady = true
	}
	return rf.swapped, rf.rebalanced.fits(regs)
}

// dualFit is FitsDual prepared for many budgets: the global region is
// allocated once per classification, each cluster's local region gets
// its First Fit placement order sorted the first time a budget reaches
// it, and each budget's answer is kept, so a budget asked again — by
// another model sharing the partition — costs a lookup. Buffers are
// reused across resets.
type dualFit struct {
	c       *Classification
	global  int // global-region registers; -1 when it cannot be allocated
	local   []regalloc.Fitter
	ready   []bool
	answers []answer // sorted by budget
}

// answer is dualFit's kept answer for one budget.
type answer struct {
	regs int
	ok   bool
}

func (d *dualFit) reset(c *Classification) {
	d.c, d.global = c, -1
	if global, err := regalloc.Registers(c.GlobalLts, c.II); err == nil {
		d.global = global
	}
	if len(d.local) != c.Clusters {
		d.local = make([]regalloc.Fitter, c.Clusters)
		d.ready = make([]bool, c.Clusters)
	}
	clear(d.ready)
	d.answers = d.answers[:0]
}

// fits reports whether the classified values fit in subfiles of r
// registers each.
func (d *dualFit) fits(r int) bool {
	i, seen := slices.BinarySearchFunc(d.answers, r, func(a answer, r int) int { return cmp.Compare(a.regs, r) })
	if !seen {
		if d.answers == nil {
			d.answers = make([]answer, 0, 32) // one allocation for the paper's axes and a 26-point curve
		}
		d.answers = slices.Insert(d.answers, i, answer{r, d.place(r)})
	}
	return d.answers[i].ok
}

// place runs the placement that answers fits.
func (d *dualFit) place(r int) bool {
	if d.global < 0 || d.global > r {
		return false
	}
	for cluster := range d.local {
		f := &d.local[cluster]
		if !d.ready[cluster] {
			f.Reset(d.c.LocalLts[cluster], d.c.II)
			d.ready[cluster] = true
		}
		if !f.FitsIn(r - d.global) {
			return false
		}
	}
	return true
}
