package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
	"ncdrf/internal/sweep"
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's origin; a span's self time is its duration minus the part its
// child spans cover.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"` // index of the enclosing span, -1 for none
	Cell   int32         `json:"cell"`   // plan index of the grid cell, -1 for none
	// Spilled marks a pipeline.eval span whose cell needed more than one
	// round of the spill loop, or failed.
	Spilled bool `json:"spilled,omitempty"`
}

// tracer keeps spans in memory; they are written out only when the run
// ends. A nil *tracer records nothing and never reads the clock, which is
// how the untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: nowMono()} }

func (t *tracer) begin(name string, parent, cell int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: nowMono().Sub(t.origin), Parent: parent, Cell: cell})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = nowMono().Sub(t.origin)
}

// call records fn as one top-level span.
func (t *tracer) call(name string, cell int32, fn func()) {
	id := t.begin(name, -1, cell)
	fn()
	t.end(id)
}

// tracingScheduler is the spill.Scheduler the traced replay hands to the
// pipeline. It delegates to the engine's cached Schedule and records each
// call as a sched.run span when the cache computed the schedule, or as a
// sweep.schedule_hit span when the cache already held it.
type tracingScheduler struct {
	eng          *sweep.Engine
	tr           *tracer
	parent, cell int32
}

func (s *tracingScheduler) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	misses := s.eng.Cache().Stats().Misses
	id := s.tr.begin("sched.run", s.parent, s.cell)
	res, err := s.eng.Schedule(g, m, opts)
	s.tr.end(id)
	if s.eng.Cache().Stats().Misses == misses {
		s.tr.spans[id].Name = "sweep.schedule_hit"
	}
	return res, err
}

// Forget passes the spill loop's dead-graph notice on to the engine.
func (s *tracingScheduler) Forget(g *ddg.Graph) { s.eng.Forget(g) }

// cell is one replayed grid cell.
type cell struct {
	row    []byte                // its encoded result row
	res    *pipeline.ModelResult // nil when the cell failed
	base   *pipeline.Base        // nil when its base failed
	failed bool
}

// replay evaluates the grid the way the sweep executor does: one base
// per (loop, machine) group, then every (model, regs) cell of the group,
// each row filled and encoded. It runs on a fresh single-worker engine,
// so the schedule cache starts empty, and calls exported functions only.
// With a nil tracer the engine itself is the scheduler.
func replay(ctx context.Context, tr *tracer, grid sweep.Grid) ([]cell, error) {
	eng := sweep.New(1)
	ts := &tracingScheduler{eng: eng, tr: tr}
	var sr spill.Scheduler = eng
	if tr != nil {
		sr = ts
	}
	plan := grid.Plan()
	cells := make([]cell, len(plan))
	var buf bytes.Buffer
	for _, grp := range sweep.GroupUnits(plan) {
		g, m := grid.Corpus[grp.Loop], grid.Machines[grp.Machine]
		ts.parent, ts.cell = tr.begin("pipeline.base", -1, -1), -1
		base, baseErr := pipeline.NewBaseWith(sr, g, m, sched.Options{})
		tr.end(ts.parent)
		for _, ui := range grp.Units {
			u := plan[ui]
			c := &cells[ui]
			err := baseErr
			if err == nil {
				c.base = base
				id := tr.begin("pipeline.eval", -1, int32(ui))
				ts.parent, ts.cell = id, int32(ui)
				c.res, err = pipeline.Evaluate(ctx, sr, base, u.Model, u.Regs)
				tr.end(id)
				if tr != nil && (err != nil || c.res.Iterations > 1) {
					tr.spans[id].Spilled = true
				}
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			id := tr.begin("pipeline.row_encode", -1, int32(ui))
			row := pipeline.Row{Loop: g.LoopName, Machine: m.Name(), Model: u.Model.String(), Regs: u.Regs, Trips: g.TripsOrOne()}
			if err != nil {
				c.failed = true
				row.Error = err.Error()
			} else {
				row.Fill(c.res)
			}
			buf.Reset()
			if err := pipeline.EncodeRow(&buf, row); err != nil {
				return nil, fmt.Errorf("encoding row %d: %w", ui, err)
			}
			tr.end(id)
			c.row = bytes.Clone(buf.Bytes())
		}
	}
	return cells, nil
}

// runTrace is the traced pass. It replays the run's first corpus in
// process on one thread, alternating an untraced and a traced replay
// until the measuring time is used, and probes the layers once. It
// returns the per-layer metrics, each a median over the traced replays,
// and the first traced replay's spans.
func (b *bench) runTrace(ctx context.Context, w workload, p plan, seed int64, t *tally) (map[string]summary, []span, error) {
	// The replayed corpus is the first one the untraced runs measure.
	seeds, refs, err := b.selectCorpora(ctx, w, seed, 1, t)
	if err != nil {
		return nil, nil, err
	}
	seed = seeds[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var traced, untraced []float64
	var per []map[string]float64
	var first []span
	start := nowMono()
	for round := 0; round < p.minRounds || nowMono().Sub(start).Seconds() < p.seconds; round++ {
		var rows [2]string // digest of the untraced and the traced replay's rows
		for i := range rows {
			tracing := (i+round)%2 == 1
			var tr *tracer
			if tracing {
				tr = newTracer()
			}
			var corpus []*ddg.Graph
			tr.call("loopgen.Generate", -1, func() { corpus = w.corpus(seed) })
			grid := w.grid(corpus)
			t0 := nowMono()
			cells, err := replay(ctx, tr, grid)
			took := nowMono().Sub(t0).Seconds()
			if err != nil {
				return nil, nil, err
			}
			h := sha256.New()
			for _, c := range cells {
				h.Write(c.row)
			}
			if !tracing {
				rows[0] = hex.EncodeToString(h.Sum(nil))
				untraced = append(untraced, took)
				continue
			}
			rows[1] = hex.EncodeToString(h.Sum(nil))
			traced = append(traced, took)
			m := bodyMetrics(tr.spans, cells)
			if len(per) == 0 {
				if w.curve != nil {
					all := make([][]byte, len(cells))
					for j, c := range cells {
						all[j] = c.row
					}
					checkRows(t, refs[0].stdout, all)
				}
				ps, err := probe(ctx, tr, grid, cells, seed, filepath.Join(b.work, "probe-store"), t)
				if err != nil {
					return nil, nil, err
				}
				maps.Copy(m, probeMetrics(tr.spans, ps))
				first = tr.spans
			}
			per = append(per, m)
		}
		checkSame(t, "untraced replay rows", rows[1], rows[0])
	}

	out := map[string]summary{}
	changed := ""
	for _, k := range slices.Sorted(maps.Keys(per[0])) {
		var xs []float64
		for _, m := range per {
			if v, ok := m[k]; ok {
				xs = append(xs, v)
			}
		}
		if unitOf(k) == "count" && slices.Min(xs) != slices.Max(xs) && changed == "" {
			changed = fmt.Sprintf("%s ranged %v..%v", k, slices.Min(xs), slices.Max(xs))
		}
		out[k] = summarize(xs)
	}
	if len(per) > 1 {
		t.check("replay counts repeat", changed == "", changed)
	}
	out["trace.overhead_frac"] = summarize([]float64{median(traced)/median(untraced) - 1})
	return out, first, nil
}

// bodyMetrics reduces one traced replay's eval tree to per-layer
// metrics.
func bodyMetrics(spans []span, cells []cell) map[string]float64 {
	childTime := make([]time.Duration, len(spans))
	childCount := make([]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
			childCount[s.Parent]++
		}
	}
	var evals, spilled, scheds []float64
	var gen, base, eval, encode, schedS, hitS, spillSelf float64
	var hits, rounds, spillCells float64
	for i, s := range spans {
		d := (s.End - s.Start).Seconds()
		switch s.Name {
		case "loopgen.Generate":
			gen += d
		case "pipeline.base":
			base += d
		case "pipeline.eval":
			eval += d
			evals = append(evals, d)
			if s.Spilled {
				spillCells++
				spillSelf += d - childTime[i].Seconds()
				spilled = append(spilled, d)
				rounds += float64(childCount[i])
			}
		case "pipeline.row_encode":
			encode += d
		case "sched.run":
			schedS += d
			scheds = append(scheds, d)
		case "sweep.schedule_hit":
			hits++
			hitS += d
		}
	}
	var bumps, failed float64
	for _, c := range cells {
		if c.failed {
			failed++
		} else {
			bumps += float64(c.res.IIBumps)
		}
	}
	calls := float64(len(scheds))
	hitRatio := 0.0
	if hits+calls > 0 {
		hitRatio = hits / (hits + calls)
	}
	return map[string]float64{
		"loopgen.generate_s":       gen,
		"pipeline.base_s":          base,
		"pipeline.eval_s":          eval,
		"pipeline.eval_p50_us":     percentile(evals, 50) * 1e6,
		"pipeline.eval_p99_us":     percentile(evals, 99) * 1e6,
		"pipeline.row_encode_s":    encode,
		"sched.calls":              calls,
		"sched.self_s":             schedS,
		"sweep.schedule_hits":      hits,
		"sweep.schedule_hit_ratio": hitRatio,
		"sweep.schedule_hit_s":     hitS,
		"spill.cells":              spillCells,
		"spill.rounds":             rounds,
		"spill.ii_bumps":           bumps,
		"spill.nonconverged":       failed,
		"spill.self_s":             spillSelf,
		"spill.cell_p50_ms":        percentile(spilled, 50) * 1e3,
		"spill.cell_p99_ms":        percentile(spilled, 99) * 1e3,
	}
}
