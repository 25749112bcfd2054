package main

import (
	"fmt"
	"strconv"
	"strings"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/experiment"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/machine"
	"ncdrf/internal/sweep"
)

// workload is one benchmark input set: an ncdrf CLI command over
// seed-derived synthetic corpora (the curated kernels always ride along,
// as in every corpus command).
type workload struct {
	name  string
	loops int
	// curve, when set, makes the workload an `ncdrf curve -ndjson` grid;
	// otherwise it runs `ncdrf all`.
	curve *axes
	// store runs `all` against a -cache-dir: the cold run that fills the
	// directory is the set-up, warm reruns are timed.
	store bool
}

// axes is a curve workload's grid: -lats and the dense -regs lo:hi:step
// axis, over the default two-cluster machines and all four models.
type axes struct {
	lats         []int
	lo, hi, step int
}

// workloads are the benchmark's inputs; BENCHMARK.json records why each
// was chosen. Sizes keep one untraced child run between 0.3 and 2
// seconds on two CPUs, so a 25-second run samples a corpus two to five
// times in each setting.
var workloads = []workload{
	// The paper's exhibits end to end: the spill loop of the fixed-budget
	// figures, swap descent and first-fit allocation share the time; there
	// is no store.
	{name: "paper-all", loops: 795},
	// The spill region: spill rounds and the schedule cache dominate, on
	// the whole grid rather than on the two budgets `all` evaluates. The
	// axis starts at 32 registers, where every cell still converges;
	// below it a few cells per corpus run 400 rounds and fail, and a
	// run's time then hinges on how many such cells its corpus draws.
	// Spill cost concentrates in the corpus's large loops, so the corpus
	// is large too, to keep that draw from moving the medians.
	{name: "spill-curve", loops: 1000, curve: &axes{lats: []int{3, 6}, lo: 32, hi: 64, step: 4}},
	// Fitting cells: almost every cell fits on its first try, so fit
	// checks, classification and row encoding dominate while the spiller
	// and scheduler are nearly idle.
	{name: "fit-curve", loops: 400, curve: &axes{lats: []int{3, 6}, lo: 56, hi: 256, step: 8}},
	// The only workload where the artifact codecs and the store do the
	// work: warm reruns read back what the cold run wrote.
	{name: "store-rerun", loops: 200, store: true},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (a *axes) regs() []int {
	var out []int
	for r := a.lo; r <= a.hi; r += a.step {
		out = append(out, r)
	}
	return out
}

// args is the workload's CLI command for one corpus; cacheDir is only
// used by the store workload.
func (w workload) args(seed int64, cacheDir string) []string {
	common := []string{"-loops", strconv.Itoa(w.loops), "-seed", strconv.FormatInt(seed, 10)}
	if w.curve != nil {
		lats := make([]string, len(w.curve.lats))
		for i, l := range w.curve.lats {
			lats[i] = strconv.Itoa(l)
		}
		return append(append([]string{"curve"}, common...),
			"-lats", strings.Join(lats, ","),
			"-regs", fmt.Sprintf("%d:%d:%d", w.curve.lo, w.curve.hi, w.curve.step),
			"-ndjson")
	}
	args := append([]string{"all"}, common...)
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	return args
}

// corpus builds, in process, the corpus the CLI builds for the same
// flags.
func (w workload) corpus(seed int64) []*ddg.Graph {
	p := loopgen.Defaults()
	p.Loops, p.Seed = w.loops, seed
	return experiment.Corpus(p)
}

// grid is the set of cells the traced replay evaluates: a curve
// workload's own grid, or for `all` the Figure 8 cells (both machines ×
// every model × 32 and 64 registers), the part of `all` that runs the
// per-model pipeline at a fixed budget.
func (w workload) grid(corpus []*ddg.Graph) sweep.Grid {
	g := sweep.Grid{Corpus: corpus, Models: core.Models[:]}
	if w.curve == nil {
		g.Machines = []*machine.Config{machine.Eval(3), machine.Eval(6)}
		g.Regs = []int{32, 64}
		return g
	}
	for _, lat := range w.curve.lats {
		g.Machines = append(g.Machines, experiment.EvalN(2, lat))
	}
	g.Regs = w.curve.regs()
	return g
}
