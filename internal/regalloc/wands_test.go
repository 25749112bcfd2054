package regalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

func paperLifetimes(t *testing.T) ([]lifetime.Lifetime, int) {
	t.Helper()
	s, err := sched.Run(loops.PaperExample(), machine.Example(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lifetime.Compute(s), s.II
}

// TestPaperUnifiedAllocation checks the paper's headline number: the
// example loop needs exactly 42 registers in a unified rotating file.
func TestPaperUnifiedAllocation(t *testing.T) {
	lts, ii := paperLifetimes(t)
	a, err := FirstFit(lts, ii)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registers != 42 {
		t.Fatalf("unified allocation = %d registers, want 42", a.Registers)
	}
	if err := a.Validate(lts); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAllocation(t *testing.T) {
	a, err := FirstFit(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registers != 0 {
		t.Fatalf("empty allocation = %d", a.Registers)
	}
	if err := a.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if !FitsIn(nil, 4, 0) {
		t.Fatal("empty set must fit in 0 registers")
	}
}

func TestFirstFitRejectsBadInput(t *testing.T) {
	if _, err := FirstFit(nil, 0); err == nil {
		t.Fatal("II=0 must fail")
	}
	bad := []lifetime.Lifetime{{Node: 0, Start: 5, End: 5}}
	if _, err := FirstFit(bad, 2); err == nil {
		t.Fatal("zero-length lifetime must fail")
	}
}

func TestSingleValue(t *testing.T) {
	lts := []lifetime.Lifetime{{Node: 7, Start: 3, End: 10}}
	for ii := 1; ii <= 8; ii++ {
		a, err := FirstFit(lts, ii)
		if err != nil {
			t.Fatal(err)
		}
		want := (7 + ii - 1) / ii // ceil(len/II)
		if a.Registers != want {
			t.Fatalf("ii=%d: registers = %d, want %d", ii, a.Registers, want)
		}
		if err := a.Validate(lts); err != nil {
			t.Fatalf("ii=%d: %v", ii, err)
		}
	}
}

func TestTwoDisjointValuesShareRegister(t *testing.T) {
	// Two short values far apart in the kernel can share one register
	// when II is large enough.
	lts := []lifetime.Lifetime{
		{Node: 0, Start: 0, End: 2},
		{Node: 1, Start: 4, End: 6},
	}
	a, err := FirstFit(lts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registers != 1 {
		t.Fatalf("registers = %d, want 1", a.Registers)
	}
}

func TestOverlappingValuesNeedTwo(t *testing.T) {
	lts := []lifetime.Lifetime{
		{Node: 0, Start: 0, End: 5},
		{Node: 1, Start: 2, End: 7},
	}
	a, err := FirstFit(lts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registers != 2 {
		t.Fatalf("registers = %d, want 2", a.Registers)
	}
}

func TestFitsInBoundary(t *testing.T) {
	lts, ii := paperLifetimes(t)
	if !FitsIn(lts, ii, 42) {
		t.Fatal("must fit in 42")
	}
	if FitsIn(lts, ii, 41) {
		t.Fatal("must not fit in 41")
	}
}

func TestValidateCatchesConflicts(t *testing.T) {
	lts := []lifetime.Lifetime{
		{Node: 0, Start: 0, End: 5},
		{Node: 1, Start: 2, End: 7},
	}
	bad := &Allocation{Registers: 2, II: 4, Spec: map[int]int{0: 0, 1: 0}}
	if err := bad.Validate(lts); err == nil {
		t.Fatal("Validate accepted colliding specifiers")
	}
	missing := &Allocation{Registers: 2, II: 4, Spec: map[int]int{0: 0}}
	if err := missing.Validate(lts); err == nil {
		t.Fatal("Validate accepted missing value")
	}
	oob := &Allocation{Registers: 2, II: 4, Spec: map[int]int{0: 0, 1: 5}}
	if err := oob.Validate(lts); err == nil {
		t.Fatal("Validate accepted out-of-range specifier")
	}
}

func TestArcOverlapWraparound(t *testing.T) {
	// [10, 14) on circle 12 wraps to [10,12)+[0,2): overlaps [0,1).
	a := arc{start: 10, end: 14}
	b := arc{start: 0, end: 1}
	if !a.overlaps(b, 12) {
		t.Fatal("wraparound overlap missed")
	}
	c := arc{start: 2, end: 10}
	if a.overlaps(c, 12) {
		t.Fatal("false overlap")
	}
	if !a.overlaps(a, 12) {
		t.Fatal("self overlap missed")
	}
}

func randomLifetimes(r *rand.Rand) ([]lifetime.Lifetime, int) {
	ii := 1 + r.Intn(6)
	n := 1 + r.Intn(14)
	lts := make([]lifetime.Lifetime, n)
	for i := range lts {
		s := r.Intn(25)
		lts[i] = lifetime.Lifetime{Node: i, Start: s, End: s + 1 + r.Intn(18)}
	}
	return lts, ii
}

// Property: First Fit allocations are always valid and never beat the
// exact lower bounds.
func TestPropertyFirstFitValidAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lts, ii := randomLifetimes(r)
		a, err := FirstFit(lts, ii)
		if err != nil {
			return false
		}
		if a.Validate(lts) != nil {
			return false
		}
		if a.Registers < lifetime.AvgLiveBound(lts, ii) {
			return false
		}
		return a.Registers >= lifetime.MaxLive(lts, ii)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: FitsIn is consistent with FirstFit's result: it fits at the
// size FirstFit found and not one below, and on these inputs three
// above too. (First Fit is not monotone in general; see
// TestFitterCertificateMatchesFitsIn.)
func TestPropertyFitsInMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lts, ii := randomLifetimes(r)
		a, err := FirstFit(lts, ii)
		if err != nil {
			return false
		}
		if !FitsIn(lts, ii, a.Registers) {
			return false
		}
		if FitsIn(lts, ii, a.Registers-1) {
			// First Fit found a smaller feasible size during its upward
			// search; contradiction.
			return false
		}
		return FitsIn(lts, ii, a.Registers+3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: First Fit never needs more than the linear-placement bound.
// Placing each wand just past all previous ones advances the frontier by
// at most its length plus II-1 cycles of rounding slack (arc starts move
// in II steps), so R <= ceil((maxStart + sum(L) + n*(II-1))/II) + 1 and
// the upward search must stop by then.
func TestPropertyFirstFitUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lts, ii := randomLifetimes(r)
		a, err := FirstFit(lts, ii)
		if err != nil {
			return false
		}
		maxStart := 0
		for _, l := range lts {
			if l.Start > maxStart {
				maxStart = l.Start
			}
		}
		extent := maxStart + lifetime.SumLen(lts) + len(lts)*(ii-1)
		bound := (extent+ii-1)/ii + 1
		return a.Registers <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
