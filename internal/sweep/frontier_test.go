package sweep

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
)

// syntheticSeries builds a probe function over a synthetic series: dense
// is the row the dense run would produce at each axis index. It counts
// probed cells, so tests can pin the O(log n) contract.
func syntheticSeries(axis []int, dense []Result) (probe func(cells []int, put func(int, Result)) error, calls *int) {
	n := 0
	return func(cells []int, put func(int, Result)) error {
		for _, i := range cells {
			n++
			put(i, dense[i])
		}
		return nil
	}, &n
}

// spillySeries is a well-behaved synthetic series over axis: cells below
// fitAt spill (with spill traffic shrinking as regs grow), cells at and
// above it fit with identical metrics.
func spillySeries(axis []int, fitAt int) []Result {
	rows := make([]Result, len(axis))
	for i, regs := range axis {
		r := Result{Loop: "syn", Machine: "m", Model: "unified", Regs: regs, II: 4, Trips: 10, MemOps: 2}
		if regs < fitAt {
			r.Spilled = (fitAt - regs) / 4
			r.MemOps = 2 + r.Spilled
			r.Rounds = 2
		}
		rows[i] = r
	}
	return rows
}

// TestFrontierSeriesPrunesMonotone pins the happy path: a monotone
// series is resolved with at most ceil(log2 n)+1 probes beyond its
// spill region, every cell above the boundary is implied from the
// boundary row, and the emitted rows equal the dense rows exactly.
func TestFrontierSeriesPrunesMonotone(t *testing.T) {
	axis := []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128}
	dense := spillySeries(axis, 24)
	probe, calls := syntheticSeries(axis, dense)

	rows, implied, violation, err := frontierSeries(axis, probe)
	if err != nil || violation != "" {
		t.Fatalf("monotone series: err=%v violation=%q", err, violation)
	}
	for i := range rows {
		if rows[i] != dense[i] {
			t.Fatalf("cell %d: frontier row %+v != dense row %+v", i, rows[i], dense[i])
		}
	}
	boundary := 2 // axis index of 24 regs, the first fit
	spillRegion := boundary
	maxProbes := spillRegion + int(math.Ceil(math.Log2(float64(len(axis))))) + 1
	if *calls > maxProbes {
		t.Fatalf("monotone series cost %d probes, want <= spill region + log2 axis + 1 = %d", *calls, maxProbes)
	}
	nimplied := 0
	for i, im := range implied {
		if im {
			nimplied++
			if i <= boundary {
				t.Fatalf("cell %d at/below the boundary marked implied", i)
			}
		}
	}
	if want := len(axis) - *calls; nimplied != want {
		t.Fatalf("implied %d rows, want every unprobed cell = %d", nimplied, want)
	}
}

// TestFrontierSeriesAllSpillComputesDense pins that a series that never
// fits degenerates gracefully: the search walks to the top, every cell
// is computed, nothing is implied, nothing is flagged.
func TestFrontierSeriesAllSpillComputesDense(t *testing.T) {
	axis := []int{8, 16, 24, 32}
	dense := spillySeries(axis, 1000)
	probe, calls := syntheticSeries(axis, dense)
	rows, implied, violation, err := frontierSeries(axis, probe)
	if err != nil || violation != "" {
		t.Fatalf("all-spill series: err=%v violation=%q", err, violation)
	}
	if *calls != len(axis) {
		t.Fatalf("all-spill series computed %d cells, want all %d", *calls, len(axis))
	}
	for i := range rows {
		if rows[i] != dense[i] || implied[i] {
			t.Fatalf("cell %d: row %+v implied=%v", i, rows[i], implied[i])
		}
	}
}

// TestFrontierSeriesNonMonotoneFitFallsBack is the constructed
// counterexample of the monotonicity theorem: a series that fits at a
// small size, spills again above it, and fits once more. The guard must
// flag the series and fall back to dense evaluation — every emitted row
// computed, byte-equal to the dense rows, none implied.
func TestFrontierSeriesNonMonotoneFitFallsBack(t *testing.T) {
	axis := []int{8, 16, 24, 32, 40, 48, 56, 64}
	dense := spillySeries(axis, 56)
	// The dip: a spurious fit at 16 regs below the true boundary.
	dense[1].Spilled = 0
	dense[1].MemOps = 2
	dense[1].Rounds = 0

	probe, _ := syntheticSeries(axis, dense)
	rows, implied, violation, err := frontierSeries(axis, probe)
	if err != nil {
		t.Fatal(err)
	}
	if violation == "" {
		t.Fatal("non-monotone fit dip not flagged")
	}
	if !strings.Contains(violation, "not monotone") {
		t.Fatalf("violation %q does not describe the non-monotone fit", violation)
	}
	for i := range rows {
		if rows[i] != dense[i] {
			t.Fatalf("fallback cell %d: row %+v != dense %+v", i, rows[i], dense[i])
		}
		if implied[i] {
			t.Fatalf("fallback cell %d still implied", i)
		}
	}
}

// TestFrontierSeriesBudgetDependentFitFallsBack is the second
// counterexample: every cell fits, but the fit rows are not
// budget-independent (metrics drift with regs). Extrapolating any one
// of them would fabricate wrong rows, so the guard must flag the series
// and the fallback must reproduce the dense rows.
func TestFrontierSeriesBudgetDependentFitFallsBack(t *testing.T) {
	axis := []int{8, 16, 24, 32, 40, 48, 56, 64}
	dense := make([]Result, len(axis))
	for i, regs := range axis {
		// Fit everywhere, but MemOps varies with the budget — violating
		// the budget-independence of fit results.
		dense[i] = Result{Loop: "syn", Machine: "m", Model: "swapped", Regs: regs,
			II: 3, Trips: 5, MemOps: 2 + i%2}
	}
	probe, _ := syntheticSeries(axis, dense)
	rows, implied, violation, err := frontierSeries(axis, probe)
	if err != nil {
		t.Fatal(err)
	}
	if violation == "" {
		t.Fatal("budget-dependent fit rows not flagged")
	}
	for i := range rows {
		if rows[i] != dense[i] {
			t.Fatalf("fallback cell %d: row %+v != dense %+v", i, rows[i], dense[i])
		}
		if implied[i] {
			t.Fatalf("fallback cell %d still implied", i)
		}
	}
}

// TestFrontierSeriesSpillTrafficIncreaseFallsBack covers the guard the
// issue names directly: spill ops increasing with more registers inside
// the spill region.
func TestFrontierSeriesSpillTrafficIncreaseFallsBack(t *testing.T) {
	axis := []int{8, 16, 24, 32, 40, 48, 56, 64}
	dense := spillySeries(axis, 56)
	dense[3].Spilled = dense[2].Spilled + 5 // spill grows 24 -> 32 regs
	dense[3].MemOps = 2 + dense[3].Spilled
	probe, _ := syntheticSeries(axis, dense)
	rows, implied, violation, err := frontierSeries(axis, probe)
	if err != nil {
		t.Fatal(err)
	}
	if violation == "" || !strings.Contains(violation, "spill traffic increases") {
		t.Fatalf("violation %q does not describe the spill-traffic increase", violation)
	}
	for i := range rows {
		if rows[i] != dense[i] || implied[i] {
			t.Fatalf("fallback cell %d: row %+v implied=%v", i, rows[i], implied[i])
		}
	}
}

// TestValidateFrontierAxis pins the axis contract: only finite,
// strictly ascending axes have the dominance structure the search uses.
func TestValidateFrontierAxis(t *testing.T) {
	for _, tc := range []struct {
		axis []int
		ok   bool
	}{
		{[]int{8, 16, 32}, true},
		{[]int{7}, true},
		{nil, false},
		{[]int{0, 8}, false},      // unlimited has no boundary
		{[]int{8, 8, 16}, false},  // duplicate
		{[]int{16, 8}, false},     // descending
		{[]int{8, 16, -1}, false}, // negative
	} {
		err := validateFrontierAxis(tc.axis)
		if (err == nil) != tc.ok {
			t.Errorf("validateFrontierAxis(%v) = %v, want ok=%v", tc.axis, err, tc.ok)
		}
	}

	eng := New(2)
	grid := Grid{
		Corpus:   loops.Kernels()[:1],
		Machines: []*machine.Config{machine.Eval(3)},
		Models:   []core.Model{core.Unified},
		Regs:     []int{32, 16},
	}
	err := eng.SweepFrontier(context.Background(), grid, func(Result) {
		t.Fatal("emitted a row from an invalid frontier axis")
	}, FrontierOptions{})
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("descending axis: err = %v", err)
	}
}

// TestSweepFrontierMatchesDenseStream is the byte-level trust contract
// over real kernels: the frontier stream must be identical to the dense
// stream — including grids whose tight budgets make cells fail — while
// computing strictly fewer evaluations and implying the difference.
func TestSweepFrontierMatchesDenseStream(t *testing.T) {
	kernels := loops.Kernels()
	axis := []int{4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128}
	grids := []Grid{
		{
			Corpus:   kernels[:12],
			Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
			Models:   core.Models[:],
			Regs:     axis,
		},
		{
			// Tight budgets: some cells fail to converge, exercising error
			// rows inside the spill region.
			Corpus:   kernels[12:20],
			Machines: []*machine.Config{machine.Eval(6)},
			Models:   []core.Model{core.Unified, core.Swapped},
			Regs:     []int{2, 4, 6, 8, 12, 16, 24, 32, 48, 64},
		},
	}
	for gi, grid := range grids {
		denseEng, frontEng := New(4), New(4)
		dense := encodeStream(t, func(emit func(Result)) error {
			return denseEng.Sweep(context.Background(), grid, emit)
		})
		var violations []FrontierViolation
		frontier := encodeStream(t, func(emit func(Result)) error {
			return frontEng.SweepFrontier(context.Background(), grid, emit, FrontierOptions{
				OnViolation: func(v FrontierViolation) { violations = append(violations, v) },
			})
		})
		if !bytes.Equal(dense, frontier) {
			t.Fatalf("grid %d: frontier stream differs from dense stream\ndense:\n%s\nfrontier:\n%s",
				gi, dense, frontier)
		}
		for _, v := range violations {
			t.Errorf("grid %d: unexpected non-monotone series %s/%s (%s): %s",
				gi, v.Loop, v.Model, v.Machine, v.Detail)
		}

		dst, fst := denseEng.StageStats(), frontEng.StageStats()
		if fst.Eval.Misses >= dst.Eval.Misses {
			t.Fatalf("grid %d: frontier computed %d evals, dense %d — no pruning", gi, fst.Eval.Misses, dst.Eval.Misses)
		}
		if fst.RowsImplied == 0 {
			t.Fatalf("grid %d: frontier implied no rows", gi)
		}
		if fst.RowsComputed+fst.RowsImplied != uint64(len(grid.Plan())) {
			t.Fatalf("grid %d: computed %d + implied %d rows != plan %d",
				gi, fst.RowsComputed, fst.RowsImplied, len(grid.Plan()))
		}
		if dst.RowsImplied != 0 || dst.RowsComputed != uint64(len(grid.Plan())) {
			t.Fatalf("grid %d: dense run counted %d computed, %d implied rows",
				gi, dst.RowsComputed, dst.RowsImplied)
		}
	}
}

// TestSweepFrontierEvalBound pins the headline complexity claim: over
// the full kernels corpus, the computed-eval counter stays within
// series x (ceil(log2 axis) + C) where C bounds the corpus' spill
// regions — far below the dense series x axis.
func TestSweepFrontierEvalBound(t *testing.T) {
	kernels := loops.Kernels()
	var axis []int
	for r := 8; r <= 128; r += 4 {
		axis = append(axis, r)
	}
	grid := Grid{
		Corpus:   kernels,
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     axis,
	}
	eng := New(0)
	rows := 0
	if err := eng.SweepFrontier(context.Background(), grid, func(Result) { rows++ }, FrontierOptions{}); err != nil {
		t.Fatal(err)
	}
	if want := len(grid.Plan()); rows != want {
		t.Fatalf("emitted %d rows, want %d", rows, want)
	}
	series := len(kernels) * len(grid.Machines) * len(grid.Models)
	logAxis := int(math.Ceil(math.Log2(float64(len(axis)))))
	const spillC = 8 // generous bound on the corpus' per-series spill regions
	bound := uint64(series * (logAxis + spillC))
	st := eng.StageStats()
	if st.Eval.Misses > bound {
		t.Fatalf("frontier computed %d evals over %d series x %d axis points, want <= series x (log2 axis + %d) = %d",
			st.Eval.Misses, series, len(axis), spillC, bound)
	}
	denseEvals := uint64(series * len(axis))
	t.Logf("frontier: %d computed evals vs %d dense cells (%.1fx reduction), %d implied rows",
		st.Eval.Misses, denseEvals, float64(denseEvals)/float64(st.Eval.Misses), st.RowsImplied)
}

// TestFrontierSeriesPartition pins seriesOf: every planned unit lands in
// exactly one series, in plan order, keyed by (loop, machine, model).
func TestFrontierSeriesPartition(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels()[:3],
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   []core.Model{core.Ideal, core.Unified},
		Regs:     []int{8, 16, 32},
	}
	units := grid.Plan()
	series := seriesOf(units)
	if want := 3 * 2 * 2; len(series) != want {
		t.Fatalf("partitioned into %d series, want %d", len(series), want)
	}
	covered := 0
	for _, s := range series {
		if len(s.axis) != len(grid.Regs) {
			t.Fatalf("series (%d,%d,%v) has %d axis cells, want %d", s.loop, s.machine, s.model, len(s.axis), len(grid.Regs))
		}
		for i, pi := range s.planIdx {
			u := units[pi]
			if u.Loop != s.loop || u.Machine != s.machine || u.Model != s.model || u.Regs != s.axis[i] {
				t.Fatalf("series cell %d mismatched unit %+v", i, u)
			}
			if i > 0 && s.axis[i] <= s.axis[i-1] {
				t.Fatalf("series axis not ascending: %v", s.axis)
			}
			covered++
		}
	}
	if covered != len(units) {
		t.Fatalf("series cover %d of %d units", covered, len(units))
	}
}
