package experiment

import (
	"bytes"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sweep"
)

// This file pins the monotonicity property the frontier executor's
// dominance pruning rests on, over the real kernels corpus: per (loop,
// machine, model) series along an ascending register axis,
//
//   - fit is monotone — a loop that allocates without spill code at R
//     registers does so at every R' > R;
//   - fit results are budget-independent — every fit row of a series is
//     identical except for the Regs column;
//   - spill traffic is monotone — Spilled and MemOps never increase as
//     the file grows;
//   - failure is monotone — a cell never fails above a compiling cell.
//
// If a pipeline change ever breaks one of these, this test localizes
// the violating series; the frontier executor itself would also catch
// it at run time (guards + dense fallback), so curve output stays
// correct either way — but the eval-count win would silently erode,
// which is why the property is pinned here as well.

// denseSeries evaluates the grid densely and groups its rows per
// (loop, machine, model) in ascending-regs order.
func denseSeries(t *testing.T, grid sweep.Grid) map[[3]string][]pipeline.Row {
	t.Helper()
	rows, err := testEng().Rows(ctx0, grid)
	if err != nil {
		t.Fatal(err)
	}
	series := map[[3]string][]pipeline.Row{}
	for _, r := range rows {
		k := [3]string{r.Loop, r.Machine, r.Model}
		series[k] = append(series[k], r)
	}
	for k, s := range series {
		if len(s) != len(grid.Regs) {
			t.Fatalf("series %v has %d rows, want %d", k, len(s), len(grid.Regs))
		}
		for i := 1; i < len(s); i++ {
			if s[i].Regs <= s[i-1].Regs {
				t.Fatalf("series %v rows not ascending in regs", k)
			}
		}
	}
	return series
}

// sameModuloRegs compares two rows ignoring the register budget.
func sameModuloRegs(a, b pipeline.Row) bool {
	a.Regs, b.Regs = 0, 0
	return a == b
}

// TestCorpusMonotonicity checks the dominance relations over the whole
// kernels corpus, both evaluation machines, all four models and a
// register axis spanning heavy spill pressure through comfortable fit.
func TestCorpusMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-wide sweep")
	}
	grid := sweep.Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128},
	}
	for k, s := range denseSeries(t, grid) {
		fitAt := -1 // index of the first fit row
		lastOK := -1
		for i, r := range s {
			if r.Error != "" {
				if lastOK >= 0 {
					t.Errorf("series %v: fails at %d regs but compiles at %d regs", k, r.Regs, s[lastOK].Regs)
				}
				continue
			}
			if lastOK >= 0 {
				if r.Spilled > s[lastOK].Spilled {
					t.Errorf("series %v: spilled values rise %d -> %d going %d -> %d regs",
						k, s[lastOK].Spilled, r.Spilled, s[lastOK].Regs, r.Regs)
				}
				if r.MemOps > s[lastOK].MemOps {
					t.Errorf("series %v: mem ops rise %d -> %d going %d -> %d regs",
						k, s[lastOK].MemOps, r.MemOps, s[lastOK].Regs, r.Regs)
				}
			}
			lastOK = i
			if r.Spilled == 0 {
				if fitAt < 0 {
					fitAt = i
				}
				if !sameModuloRegs(r, s[fitAt]) {
					t.Errorf("series %v: fit rows differ between %d and %d regs:\n  %+v\n  %+v",
						k, s[fitAt].Regs, r.Regs, s[fitAt], r)
				}
			} else if fitAt >= 0 {
				t.Errorf("series %v: spills %d values at %d regs after fitting at %d regs",
					k, r.Spilled, r.Regs, s[fitAt].Regs)
			}
		}
	}
}

// TestFrontierCurveMatchesDense is the end-to-end equivalence of the
// curve subsystem's two executors: a curve built from SweepFrontier's
// rows and PerfCurve over the same configuration must render
// byte-identical tables and CSV — implied rows are indistinguishable
// from computed ones downstream.
func TestFrontierCurveMatchesDense(t *testing.T) {
	corpus := loops.Kernels()[:16]
	m := machine.Eval(6)
	regs := []int{4, 8, 12, 16, 24, 32, 48, 64, 96, 128}

	dense, err := PerfCurve(ctx0, testEng(), corpus, m, regs)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{Corpus: corpus, Machines: []*machine.Config{m}, Models: core.Models[:], Regs: regs}
	var rows []pipeline.Row
	var violations []sweep.FrontierViolation
	err = testEng().SweepFrontier(ctx0, grid, func(r sweep.Result) { rows = append(rows, r) },
		sweep.FrontierOptions{OnViolation: func(v sweep.FrontierViolation) { violations = append(violations, v) }})
	if err != nil {
		t.Fatal(err)
	}
	frontier := BuildCurve(rows)
	for _, v := range violations {
		t.Errorf("unexpected dense fallback for %s/%s (%s): %s", v.Loop, v.Model, v.Machine, v.Detail)
	}

	render := func(c *Curve, f func(*Curve, *bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := f(c, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	csvOf := func(c *Curve, buf *bytes.Buffer) error { return c.RenderCSV(buf) }
	tabOf := func(c *Curve, buf *bytes.Buffer) error { return c.Render(buf) }
	if d, f := render(dense, csvOf), render(frontier, csvOf); !bytes.Equal(d, f) {
		t.Fatalf("frontier curve CSV differs from dense:\ndense:\n%s\nfrontier:\n%s", d, f)
	}
	if d, f := render(dense, tabOf), render(frontier, tabOf); !bytes.Equal(d, f) {
		t.Fatalf("frontier curve tables differ from dense:\ndense:\n%s\nfrontier:\n%s", d, f)
	}
}
