package sweep

import (
	"context"
	"fmt"
	"sync"
)

// This file is the frontier executor: the dominance-pruned form of the
// dense sweep for register-sensitivity curves. The curve question —
// "at how many registers does each model stop spilling?" — has monotone
// structure the dense executor ignores: a model that fits (allocates
// without spill code) at R registers fits at every R' > R, and a
// fitting cell's result is the shared base artifact itself, independent
// of the budget. So per (loop, machine, model) series the executor
// binary-searches the fit boundary on the register axis (O(log axis)
// evaluations), computes the sub-boundary spill region densely (those
// cells genuinely vary with the budget), and synthesizes every
// unprobed cell above the boundary from its evidence cell — the
// boundary row with only Regs rewritten — instead of evaluating it.
//
// Implied rows are an executor-level synthesis, not a pipeline
// artifact: they never enter the eval cache or the persistent store
// (only computed evaluations persist), so content-addressed digests
// stay sound and a warm rerun re-derives them from dominance again.
//
// Trust is guarded, not assumed: every computed cell is checked against
// the dominance relations (fit monotone in regs, fit rows identical
// modulo Regs, spill ops non-increasing, failures never above
// successes), and a series whose observed results contradict them is
// logged through FrontierOptions.OnViolation and recomputed densely —
// the stream stays byte-identical to the dense run by construction for
// fallback series, and by the guarded theorem for pruned ones.

// FrontierViolation identifies one series whose computed cells
// contradicted the dominance assumptions; the engine fell back to dense
// evaluation for it, so its emitted rows are all computed, never
// implied.
type FrontierViolation struct {
	Loop, Machine, Model string
	// Detail describes the contradiction in terms of the observed cells.
	Detail string
}

// FrontierOptions are the observation hooks of SweepFrontier.
type FrontierOptions struct {
	// OnViolation receives each series that fell back to dense
	// evaluation. Calls are serialized by the engine. May be nil.
	OnViolation func(FrontierViolation)
	// Done is the per-computed-evaluation completion hook, called
	// (concurrently) as each cell finishes computing — implied cells
	// never fire it, which is how a progress reporter tells pruned work
	// from done work. May be nil.
	Done func()
}

// SweepFrontier runs the grid's full plan with dominance pruning and
// emits the same stream Sweep would, byte-identical and in plan order,
// while evaluating only O(log axis) cells per series beyond each
// series' spill region. It requires a finite, strictly ascending
// register axis — the shape `ncdrf curve -regs lo:hi:step` produces;
// axes containing 0 (unlimited) or unordered sizes have no dominance
// structure to exploit and must run dense. Sharding is dense-only for
// the same reason: a shard slices the plan mid-series, and a partial
// series cannot be searched.
func (e *Engine) SweepFrontier(ctx context.Context, grid Grid, emit func(Result), opts FrontierOptions) error {
	if err := grid.Validate(); err != nil {
		return err
	}
	if err := validateFrontierAxis(grid.Regs); err != nil {
		return err
	}
	units := grid.Plan()
	series := planSeries(units)

	var vmu sync.Mutex
	report := func(v FrontierViolation) {
		if opts.OnViolation == nil {
			return
		}
		vmu.Lock()
		defer vmu.Unlock()
		opts.OnViolation(v)
	}

	out := newReorder(emit)
	return e.ForEach(ctx, len(series), func(si int) error {
		s := &series[si]
		probe := func(cells []int, put func(i int, r Result)) error {
			idx := make([]int, len(cells))
			for k, i := range cells {
				idx[k] = s.planIdx[i]
			}
			return e.groupCells(ctx, grid, units, s.group, idx, func(k int, r Result) {
				if opts.Done != nil {
					opts.Done()
				}
				put(cells[k], r)
			})
		}
		rows, implied, violation, err := frontierSeries(s.axis, probe)
		if err != nil {
			return err
		}
		if violation != "" {
			report(FrontierViolation{
				Loop:    grid.Corpus[s.loop].LoopName,
				Machine: grid.Machines[s.machine].Name(),
				Model:   s.model.String(),
				Detail:  violation,
			})
		}
		for i, pi := range s.planIdx {
			if implied[i] {
				e.rowsImplied.Add(1)
			}
			out.put(pi, rows[i])
		}
		return nil
	})
}

// validateFrontierAxis rejects axes without dominance structure. The
// error names the failing entries and points at dense evaluation.
func validateFrontierAxis(regs []int) error {
	if len(regs) == 0 {
		return fmt.Errorf("sweep: frontier needs an explicit register axis (an empty axis means one unlimited file; run dense)")
	}
	for i, r := range regs {
		if r < 1 {
			return fmt.Errorf("sweep: frontier needs finite register sizes, got %d (0 = unlimited has no fit boundary to search; run dense)", r)
		}
		if i > 0 && r <= regs[i-1] {
			return fmt.Errorf("sweep: frontier needs a strictly ascending register axis, got %d after %d (dominance is defined along ascending sizes; run dense)", r, regs[i-1])
		}
	}
	return nil
}

// fitRow reports whether a result row is a "fit" cell: compiled without
// any spill code. Fit cells are the dominance-implied region — a
// fitting evaluation returns the shared base artifact untouched, so its
// metrics are independent of the register budget.
func fitRow(r Result) bool { return r.Error == "" && r.Spilled == 0 }

// impliedFrom synthesizes the dominance-implied row of an axis cell
// from its evidence cell: the evidence row with only the register
// budget rewritten. The synthesized row never touches the eval cache or
// the persistent store.
func impliedFrom(evidence Result, regs int) Result {
	evidence.Regs = regs
	return evidence
}

// equalModuloRegs compares two rows ignoring the register budget — the
// exact relation dominance implies between fit cells of one series.
func equalModuloRegs(a, b Result) bool {
	a.Regs, b.Regs = 0, 0
	return a == b
}

// frontierSeries evaluates one series over a strictly ascending
// register axis: binary-search the smallest fit index (O(log n)
// single-cell probes), compute the spill region below it with one more
// probe, imply the rest from the boundary row, and verify every computed
// cell against the dominance relations. probe(cells, put) computes the
// listed axis cells (ascending) — one spill walk for the whole list —
// and puts each row; a probe error (cancellation) aborts the series. On
// a violation the series is recomputed densely — already-probed cells
// are cache hits — and the returned rows are all computed, with the
// violation described.
func frontierSeries(axis []int, probe func(cells []int, put func(i int, r Result)) error) (rows []Result, implied []bool, violation string, err error) {
	n := len(axis)
	rows = make([]Result, n)
	computed := make([]bool, n)
	put := func(i int, r Result) {
		rows[i] = r
		computed[i] = true
	}
	// evalMissing computes every not-yet-computed cell of [lo, hi).
	evalMissing := func(lo, hi int) error {
		var cells []int
		for i := lo; i < hi; i++ {
			if !computed[i] {
				cells = append(cells, i)
			}
		}
		if len(cells) == 0 {
			return nil
		}
		return probe(cells, put)
	}

	// Binary search the smallest fit index. The loop maintains the
	// sort.Search invariant — every probe below lo was non-fit, every
	// probe at or above hi was fit — so the probes themselves can never
	// contradict each other; contradictions surface from the dense
	// region below the boundary, checked afterwards.
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if err := evalMissing(mid, mid+1); err != nil {
			return nil, nil, "", err
		}
		if fitRow(rows[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	boundary := lo

	// The spill region: every cell below the fit boundary genuinely
	// varies with the budget (spill code shrinks as registers grow), so
	// it is computed, never implied — by one walk of the spill chain.
	if err := evalMissing(0, boundary); err != nil {
		return nil, nil, "", err
	}

	violation = seriesViolation(axis, rows, computed, boundary)
	if violation != "" {
		// Dense fallback: dominance cannot be trusted for this series, so
		// every cell is computed and nothing is implied. Cells evaluated
		// during the search keep their rows; only the rest are computed.
		if err := evalMissing(0, n); err != nil {
			return nil, nil, "", err
		}
		return rows, make([]bool, n), violation, nil
	}

	implied = make([]bool, n)
	for i := boundary + 1; i < n; i++ {
		if !computed[i] {
			rows[i] = impliedFrom(rows[boundary], axis[i])
			implied[i] = true
		}
	}
	return rows, implied, "", nil
}

// seriesViolation checks every computed cell of a series against the
// dominance relations the implied rows rely on and describes the first
// contradiction found, or returns "".
func seriesViolation(axis []int, rows []Result, computed []bool, boundary int) string {
	n := len(axis)
	// Fit must be monotone: no computed cell below the boundary may fit,
	// and no computed cell at or above it may spill or fail.
	for i := 0; i < boundary; i++ {
		if computed[i] && fitRow(rows[i]) {
			return fmt.Sprintf("fits at %d regs but not at the larger sizes the search probed (fit is not monotone in regs)", axis[i])
		}
	}
	for i := boundary + 1; i < n; i++ {
		if computed[i] && !fitRow(rows[i]) {
			return fmt.Sprintf("does not fit at %d regs above the fit boundary %d regs", axis[i], axis[boundary])
		}
	}
	// Fit rows must be budget-independent: the boundary row is the
	// evidence every implied cell extrapolates.
	for i := boundary + 1; i < n; i++ {
		if computed[i] && !equalModuloRegs(rows[i], rows[boundary]) {
			return fmt.Sprintf("fit rows differ between %d and %d regs (fit results are not budget-independent)", axis[boundary], axis[i])
		}
	}
	// Over the computed, successfully compiled cells, spill traffic must
	// be non-increasing in regs, and a failure must never sit above a
	// success.
	prev := -1
	for i := 0; i < n; i++ {
		if !computed[i] {
			continue
		}
		if rows[i].Error != "" {
			if prev >= 0 {
				return fmt.Sprintf("fails at %d regs but compiles at %d regs (failure is not monotone in regs)", axis[i], axis[prev])
			}
			continue
		}
		if prev >= 0 && (rows[i].Spilled > rows[prev].Spilled || rows[i].MemOps > rows[prev].MemOps) {
			return fmt.Sprintf("spill traffic increases with more registers (%d spilled/%d mem ops at %d regs -> %d/%d at %d regs)",
				rows[prev].Spilled, rows[prev].MemOps, axis[prev],
				rows[i].Spilled, rows[i].MemOps, axis[i])
		}
		prev = i
	}
	return ""
}
