package core

import (
	"slices"
	"testing"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// oracleFitsDual and oracleFit are FitsDual and Fit as they stood
// before the round fitter, verbatim: every test recomputed from scratch
// per budget.
func oracleFitsDual(c *Classification, r int) bool {
	ga, err := regalloc.FirstFit(c.GlobalLts, c.II)
	if err != nil || ga.Registers > r {
		return false
	}
	for cluster := 0; cluster < c.Clusters; cluster++ {
		if !regalloc.FitsIn(c.LocalLts[cluster], c.II, r-ga.Registers) {
			return false
		}
	}
	return true
}

func oracleFit(model Model) func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
	switch model {
	case Ideal:
		return func(s *sched.Schedule, _ []lifetime.Lifetime, _ int) (*sched.Schedule, bool) {
			return s, true
		}
	case Unified:
		return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
			return s, regalloc.FitsIn(lts, s.II, regs)
		}
	case Partitioned:
		return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
			return s, oracleFitsDual(Classify(s, lts), regs)
		}
	case Swapped:
		return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
			// Cheap path first: if the unswapped partition fits, accept.
			if oracleFitsDual(Classify(s, lts), regs) {
				return s, true
			}
			swapped, _ := Swap(s, SwapOptions{})
			return swapped, oracleFitsDual(Classify(swapped, lts), regs)
		}
	default:
		panic("core: Fit on unknown model")
	}
}

// fitCase is one round the property tests replay: a schedule, its
// lifetimes and the budget range to cover.
type fitCase struct {
	name   string
	s      *sched.Schedule
	lts    []lifetime.Lifetime
	lo, hi int
}

// kernelFitCases are the base schedules of the kernel corpus on both
// evaluation machines, each with budgets from 3 below both MaxLive and
// AvgLiveBound to the largest model requirement + 3, plus one schedule
// with an empty lifetime set.
func kernelFitCases(t *testing.T) []fitCase {
	t.Helper()
	var cases []fitCase
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for _, g := range loops.Kernels() {
			s, err := sched.Run(g, m, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lts := lifetime.Compute(s)
			hi := 0
			for _, model := range Models[1:] {
				r, _, err := Requirement(model, s, lts)
				if err != nil {
					t.Fatal(err)
				}
				hi = max(hi, r)
			}
			lo := min(lifetime.MaxLive(lts, s.II), lifetime.AvgLiveBound(lts, s.II)) - 3
			cases = append(cases, fitCase{name: g.LoopName + "/" + m.Name(), s: s, lts: lts, lo: lo, hi: hi + 3})
		}
	}
	s := cases[0].s
	return append(cases, fitCase{name: "no-values", s: s, lts: nil, lo: -1, hi: 3})
}

// sameFit compares a round-fitter answer with the oracle's.
func sameFit(gs *sched.Schedule, gok bool, ws *sched.Schedule, wok bool) bool {
	return gok == wok && gs.II == ws.II && slices.Equal(gs.FU, ws.FU) && slices.Equal(gs.Start, ws.Start)
}

// TestRoundFitMatchesFit pins the round fitter to the per-budget fit
// predicate it replaces, for every model and every budget from below
// MaxLive to past the requirement. Each subtest runs one fitter across
// all rounds in turn — budgets in descending then ascending order — so
// state carried over from an earlier round or budget would surface.
// Subtests run in parallel; under -race they show fitters share nothing.
func TestRoundFitMatchesFit(t *testing.T) {
	cases := kernelFitCases(t)
	for _, model := range Models {
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			round := RoundFit(model)
			oracle := oracleFit(model)
			one := Fit(model)
			for _, c := range cases {
				test := round(c.s, c.lts)
				for pass := 0; pass < 2; pass++ {
					for i := 0; i <= c.hi-c.lo; i++ {
						r := c.hi - i
						if pass == 1 {
							r = c.lo + i
						}
						ws, wok := oracle(c.s, c.lts, r)
						gs, gok := test(r)
						if !sameFit(gs, gok, ws, wok) {
							t.Fatalf("%s: round fitter at %d regs = %v, oracle %v", c.name, r, gok, wok)
						}
						if os, ook := one(c.s, c.lts, r); !sameFit(os, ook, ws, wok) {
							t.Fatalf("%s: Fit at %d regs = %v, oracle %v", c.name, r, ook, wok)
						}
						if model != Swapped && gs != c.s {
							t.Fatalf("%s: %v returned a schedule other than its input", c.name, model)
						}
					}
				}
			}
		})
	}
}

// TestFitsDualMatchesOracle pins FitsDual, now the one-budget case of
// the prepared dual fitter, to its previous body.
func TestFitsDualMatchesOracle(t *testing.T) {
	for _, c := range kernelFitCases(t) {
		cl := Classify(c.s, c.lts)
		for r := c.lo; r <= c.hi; r++ {
			if got, want := FitsDual(cl, r), oracleFitsDual(cl, r); got != want {
				t.Fatalf("%s: FitsDual(%d) = %v, oracle %v", c.name, r, got, want)
			}
		}
	}
}

// TestRoundFitSwappedChoosesPerBudget checks, on the kernel corpus, that
// one Swapped round hands budgets the unswapped partition fits the
// round's own schedule and smaller budgets the rebalanced one.
func TestRoundFitSwappedChoosesPerBudget(t *testing.T) {
	found := 0
	for _, c := range kernelFitCases(t) {
		plain, err := PartitionedRequirement(c.s, c.lts)
		if err != nil {
			t.Fatal(err)
		}
		swapped, _, err := Requirement(Swapped, c.s, c.lts)
		if err != nil {
			t.Fatal(err)
		}
		if swapped >= plain {
			continue
		}
		found++
		test := RoundFit(Swapped)(c.s, c.lts)
		if s, ok := test(plain); !ok || s != c.s {
			t.Fatalf("%s: at %d regs (unswapped fits) got ok=%v, own schedule %v", c.name, plain, ok, s == c.s)
		}
		if s, ok := test(swapped); !ok || s == c.s {
			t.Fatalf("%s: at %d regs (only swapped fits) got ok=%v, own schedule %v", c.name, swapped, ok, s == c.s)
		}
		if s, ok := test(plain + 1); !ok || s != c.s {
			t.Fatalf("%s: at %d regs after a swapped answer got ok=%v, own schedule %v", c.name, plain+1, ok, s == c.s)
		}
	}
	if found == 0 {
		t.Fatal("no kernel whose swap pass lowers its requirement; the test needs one")
	}
}

// TestRoundFitsMatchesFit pins the shared all-model round fitter to the
// per-budget fit predicate of every model. One fitter runs across all
// rounds; within a round it interleaves the models budget by budget —
// forwards with descending budgets, then backwards with ascending ones —
// so a plain-partition answer shared between Partitioned and Swapped,
// or state carried over from an earlier round, model or budget, would
// surface.
func TestRoundFitsMatchesFit(t *testing.T) {
	round := RoundFits()
	var oracles, fits [NumModels]func(*sched.Schedule, []lifetime.Lifetime, int) (*sched.Schedule, bool)
	for _, model := range Models {
		oracles[model], fits[model] = oracleFit(model), Fit(model)
	}
	for _, c := range kernelFitCases(t) {
		test := round(c.s, c.lts)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i <= c.hi-c.lo; i++ {
				r := c.hi - i
				if pass == 1 {
					r = c.lo + i
				}
				for j := range Models {
					model := Models[j]
					if pass == 1 {
						model = Models[len(Models)-1-j]
					}
					ws, wok := oracles[model](c.s, c.lts, r)
					if gs, gok := test(model, r); !sameFit(gs, gok, ws, wok) {
						t.Fatalf("%s: shared round fitter, %v at %d regs = %v, oracle %v", c.name, model, r, gok, wok)
					}
					if fs, fok := fits[model](c.s, c.lts, r); !sameFit(fs, fok, ws, wok) {
						t.Fatalf("%s: Fit(%v) at %d regs = %v, oracle %v", c.name, model, r, fok, wok)
					}
				}
			}
		}
	}
}
