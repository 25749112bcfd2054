package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ncdrf/internal/experiment"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sweep"
)

// maxRegsAxisPoints bounds a dense -regs range: beyond this the axis is
// almost certainly a typo (0:1000000) and would plan a grid nobody
// wants to wait for.
const maxRegsAxisPoints = 1 << 16

// parseRegsAxis accepts the curve's register axis in either form: the
// sweep-style comma list (8,16,32) or a dense range lo:hi[:step]
// (8:128:8 = 8,16,...,128; hi is included whenever the step lands on
// it; step defaults to 1). A comma list must be strictly ascending: a
// duplicated size would double-count every loop in its curve cell, and
// a descending list almost certainly means a typo'd range — both are
// rejected instead of producing a silently wrong curve.
func parseRegsAxis(s string) ([]int, error) {
	if !strings.Contains(s, ":") {
		list, err := parseIntList(s)
		if err != nil {
			return nil, err
		}
		for i, r := range list {
			if r < 0 {
				return nil, fmt.Errorf("sizes must be >= 0 (0 = unlimited), got %d", r)
			}
			if i > 0 && r == list[i-1] {
				return nil, fmt.Errorf("duplicate size %d: each register size may appear once (a repeated size would double-count its loops)", r)
			}
			if i > 0 && r < list[i-1] {
				return nil, fmt.Errorf("sizes must be ascending, got %d after %d", r, list[i-1])
			}
		}
		return list, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("want lo:hi[:step] or a comma list, got %q", s)
	}
	lo, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("bad range start %q", parts[0])
	}
	hi, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("bad range end %q", parts[1])
	}
	step := 1
	if len(parts) == 3 {
		if step, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil {
			return nil, fmt.Errorf("bad range step %q", parts[2])
		}
	}
	switch {
	case lo < 0:
		return nil, fmt.Errorf("range start must be >= 0, got %d", lo)
	case hi < lo:
		return nil, fmt.Errorf("range end %d below start %d", hi, lo)
	case step < 1:
		return nil, fmt.Errorf("range step must be >= 1, got %d", step)
	case (hi-lo)/step >= maxRegsAxisPoints: // count-1; avoids the +1 overflow at MaxInt
		return nil, fmt.Errorf("range %s has more than %d points", s, maxRegsAxisPoints)
	}
	// Iterate by count, not by value: `for r := lo; r <= hi; r += step`
	// wraps past MaxInt when hi sits near it and loops forever.
	n := (hi-lo)/step + 1
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i*step
	}
	return out, nil
}

// readRowStream parses a plain NDJSON result-row stream (an unsharded
// `sweep`/`curve -ndjson` capture or `ncdrf merge` output). Shard files
// are refused with a pointer at merge: a single shard is a partial
// grid, and aggregating it silently would produce a wrong curve.
func readRowStream(r io.Reader) ([]pipeline.Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var rows []pipeline.Row
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"ncdrf_shard"`)) {
			return nil, fmt.Errorf("shard file, not a row stream: run 'ncdrf merge' over the complete shard set first")
		}
		row, err := pipeline.DecodeRow(line)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", len(rows)+1, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty row stream")
	}
	return rows, nil
}

// cmdCurve runs the register-sensitivity curve study: the corpus ×
// machines × models grid over a dense register axis, executed
// base-major (the scheduler runs once per (loop, machine) group no
// matter how dense the axis is), aggregated into per-model curves of
// fit %, spill ops and performance relative to ideal — the generalized
// form of the paper's Figures 8/9.
//
// Output modes:
//   - default: curve tables (one per machine and metric); -csv and
//     -chart switch the rendering.
//   - -ndjson: the raw result-row stream, byte-identical to `ncdrf
//     sweep` over the same grid.
//   - -shard i/n -o file: one shard of the row stream with a header,
//     for `ncdrf merge`; render the merged stream later with -from.
//   - -from file: skip the computation and render curves from a
//     previously captured (merged) row stream.
func cmdCurve(ctx context.Context, eng *sweep.Engine, args []string) error {
	fs := flag.NewFlagSet("curve", flag.ExitOnError)
	o := corpusFlags(fs)
	gf := addGridFlags(fs, "ideal,unified,partitioned,swapped")
	regs := fs.String("regs", "8:128:8", "register axis: lo:hi[:step] (dense range) or a comma list; 0 = unlimited")
	csv := fs.Bool("csv", false, "emit one flat CSV over every (machine, model, regs) cell")
	chart := fs.Bool("chart", false, "render ASCII charts instead of tables")
	ndjson := fs.Bool("ndjson", false, "emit the raw result-row stream instead of curves")
	frontier := fs.Bool("frontier", false, "prune the register axis by dominance: binary-search each series' fit boundary and imply the cells above it (needs a strictly ascending finite axis)")
	from := fs.String("from", "", "render curves from this NDJSON row stream (e.g. 'ncdrf merge' output) instead of sweeping")
	strict := fs.Bool("strict", false, "exit non-zero when any grid cell failed to compile (default: render the failed column and warn on stderr)")
	pf := addProfileFlags(fs)
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	render := func(curve *experiment.Curve) error {
		return gf.withOut(func(w io.Writer) error {
			switch {
			case *csv:
				return curve.RenderCSV(w)
			case *chart:
				return curve.RenderChart(w)
			default:
				return curve.Render(w)
			}
		})
	}

	if *from != "" {
		// -from only renders: every flag that shapes or observes the
		// computation is rejected instead of being silently ignored.
		var extra []string
		fs.Visit(func(f *flag.Flag) { // lexical order: a stable error
			if !fromFlags[f.Name] {
				extra = append(extra, "-"+f.Name)
			}
		})
		if len(extra) > 0 {
			return fmt.Errorf("-from renders an existing stream; it cannot be combined with %s", strings.Join(extra, ", "))
		}
		f, err := os.Open(*from)
		if err != nil {
			return err
		}
		rows, err := readRowStream(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *from, err)
		}
		curve := experiment.BuildCurve(rows)
		if err := render(curve); err != nil {
			return err
		}
		return curveErr(curve, *strict)
	}

	if err := attachCacheDir(eng, *cacheDir); err != nil {
		return err
	}
	regList, err := parseRegsAxis(*regs)
	if err != nil {
		return fmt.Errorf("-regs: %w", err)
	}
	if len(regList) == 0 {
		return fmt.Errorf("-regs: no sizes given (use 0 for an unlimited file)")
	}
	grid, err := gf.buildGrid(o, regList)
	if err != nil {
		return err
	}
	if *frontier && *gf.shard != "" {
		// A shard slices the plan mid-series; the frontier search needs
		// every cell of a (loop, machine, model) series to pick its probes,
		// so a partial series cannot be searched.
		return fmt.Errorf("-frontier searches whole register-axis series and cannot run on a shard of the plan; drop -shard (sharded runs are dense-only)")
	}
	units, header, err := planShard(grid, *gf.shard)
	if err != nil {
		return err
	}

	run := denseExecutor(eng, grid, units)
	// Each series whose observed results contradict the dominance
	// assumptions is reported on stderr as it falls back to dense
	// evaluation; its rows are still correct (recomputed densely), but
	// -strict makes the violation the exit status, since the
	// monotonicity the pruning relies on did not hold.
	violations := 0
	if *frontier {
		run = func(ctx context.Context, emit func(sweep.Result), done func()) error {
			return eng.SweepFrontier(ctx, grid, emit, sweep.FrontierOptions{
				Done: done,
				// Serialized by the engine, so the counter needs no lock.
				OnViolation: func(v sweep.FrontierViolation) {
					violations++
					fmt.Fprintf(os.Stderr, "curve: frontier fell back to dense for %s/%s (%s): %s\n",
						v.Loop, v.Model, v.Machine, v.Detail)
				},
			})
		}
	}

	return gf.observe(eng, pf, len(units), func(prog *progress) error {
		// A sharded curve file is a sweep shard file, which is exactly
		// what lets `ncdrf merge` splice curve shards back into the
		// unsharded -ndjson stream.
		if header != nil || *ndjson {
			if err := gf.stream(ctx, eng, run, header, prog); err != nil {
				return err
			}
		} else {
			var rows []pipeline.Row
			if err := run(ctx, func(r sweep.Result) {
				rows = append(rows, r)
				prog.incEmitted()
			}, prog.incDone); err != nil {
				return err
			}
			curve := experiment.BuildCurve(rows)
			if err := render(curve); err != nil {
				return err
			}
			if *gf.stats {
				// Same renderer as the `ncdrf all` trailer, so the CI contract
				// (one base schedule per (loop, machine) group) greps one format.
				fmt.Printf("\n%s\n", eng.StageStats())
			}
			if err := curveErr(curve, *strict); err != nil {
				return err
			}
		}
		if *strict && violations > 0 {
			return fmt.Errorf("%d series violated the dominance assumptions and fell back to dense evaluation (rows are correct; -strict makes the violation fatal)", violations)
		}
		return nil
	})
}

// fromFlags are the flags `curve -from` accepts: the input, the output
// file and the rendering. Everything else shapes or observes a
// computation -from does not run.
var fromFlags = map[string]bool{"from": true, "o": true, "csv": true, "chart": true, "strict": true}

// curveErr reports a curve's absorbed compile failures. A cell that
// fails at a tight register budget is an expected outcome in exactly
// the region the curve probes, and it is fully represented in the
// output (the failed column; baseline metrics restricted to surviving
// loops) — so by default the command warns on stderr and succeeds.
// -strict turns the condition into the exit status for scripted
// `curve && publish` pipelines that must not treat a degraded curve as
// a clean run (Fig8and9 always fails on it: the figure tables have no
// failure column).
func curveErr(c *experiment.Curve, strict bool) error {
	err := c.Err()
	if err == nil {
		return nil
	}
	if strict {
		return fmt.Errorf("some cells failed to compile (see the failed column):\n%w", err)
	}
	fmt.Fprintf(os.Stderr, "curve: some cells failed to compile (see the failed column; -strict makes this fatal):\n%v\n", err)
	return nil
}
