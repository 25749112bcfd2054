package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
	"ncdrf/internal/store"
	"ncdrf/internal/sweep"
	"ncdrf/internal/vm"
)

// vmIters is how many iterations a sampled cell executes on the VM; the
// same count `ncdrf all` verifies with.
const vmIters = 10

// probeStats are the probes' counts that no span carries.
type probeStats struct {
	fitCalls, fitOK int
	verified        int
	artifactBytes   int
	storeFaults     uint64
}

// probe times single layer calls on the workload's own inputs, as
// top-level spans outside the eval tree:
//   - once per base: sched.Run, lifetime.Compute, regalloc.FirstFit,
//     core.Classify, core.Swap and core.Requirement of every non-ideal
//     model;
//   - once per non-ideal cell: the model's core.Fit and regalloc.FitsIn
//     at the cell's budget;
//   - on every base schedule and on a seeded 1-in-20 sample of converged
//     non-ideal cells: the artifact codecs, ddg.Decode of the embedded
//     graph, store.Put and store.Get in a scratch store, and bit-exact
//     execution on the VM against the sequential reference.
//
// Codec round trips, store read-backs and VM executions are checks in t.
func probe(ctx context.Context, tr *tracer, grid sweep.Grid, cells []cell, seed int64, dir string, t *tally) (probeStats, error) {
	var ps probeStats
	plan := grid.Plan()
	var bases []*pipeline.Base
	seen := map[*pipeline.Base]bool{}
	for _, c := range cells {
		if c.base != nil && !seen[c.base] {
			seen[c.base] = true
			bases = append(bases, c.base)
		}
	}
	for _, b := range bases {
		var err error
		tr.call("sched.Run", -1, func() { _, err = sched.Run(b.Graph, b.Machine, b.Opts) })
		if err != nil {
			return ps, fmt.Errorf("probe %s: %w", b.Graph.LoopName, err)
		}
		tr.call("lifetime.Compute", -1, func() { lifetime.Compute(b.Sched) })
		tr.call("regalloc.FirstFit", -1, func() { _, err = regalloc.FirstFit(b.Lifetimes, b.Sched.II) })
		if err != nil {
			return ps, fmt.Errorf("probe %s: %w", b.Graph.LoopName, err)
		}
		tr.call("core.Classify", -1, func() { core.Classify(b.Sched, b.Lifetimes) })
		tr.call("core.Swap", -1, func() { core.Swap(b.Sched, core.SwapOptions{}) })
		tr.call("core.Requirement", -1, func() {
			for _, model := range core.Models[1:] {
				if _, _, e := core.Requirement(model, b.Sched, b.Lifetimes); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return ps, fmt.Errorf("probe %s: %w", b.Graph.LoopName, err)
		}
	}

	var fits [core.NumModels]func(*sched.Schedule, []lifetime.Lifetime, int) (*sched.Schedule, bool)
	for _, model := range core.Models {
		fits[model] = core.Fit(model)
	}
	for ui, u := range plan {
		b := cells[ui].base
		if b == nil || u.Model == core.Ideal {
			continue
		}
		var ok bool
		tr.call("core.Fit", int32(ui), func() { _, ok = fits[u.Model](b.Sched, b.Lifetimes, u.Regs) })
		ps.fitCalls++
		if ok {
			ps.fitOK++
		}
		tr.call("regalloc.FitsIn", int32(ui), func() { regalloc.FitsIn(b.Lifetimes, b.Sched.II, u.Regs) })
	}

	rng := rand.New(rand.NewSource(seed))
	var sample []int
	for ui, c := range cells {
		if c.res != nil && plan[ui].Model != core.Ideal && rng.Intn(20) == 0 {
			sample = append(sample, ui)
		}
	}
	if err := probeArtifacts(tr, bases, cells, sample, dir, t, &ps); err != nil {
		return ps, err
	}
	for _, ui := range sample {
		u := plan[ui]
		var err error
		tr.call("vm.Verify", int32(ui), func() {
			err = vm.VerifyModelWith(ctx, compiled{cells[ui].res}, grid.Corpus[u.Loop], grid.Machines[u.Machine], u.Model, u.Regs, vmIters)
		})
		t.check("vm", err == nil, fmt.Sprintf("%s/%s/%v/%d: %v", grid.Corpus[u.Loop].LoopName, grid.Machines[u.Machine].Name(), u.Model, u.Regs, err))
		if err == nil {
			ps.verified++
		}
	}
	return ps, nil
}

// artifact is one encoded probe artifact and what decodes it.
type artifact struct {
	stage   string
	payload []byte
	graph   *ddg.Graph
	decode  func([]byte) ([]byte, error) // decode, then re-encode
}

// probeArtifacts round-trips every base schedule and every sampled
// cell's result through the artifact codecs and a scratch store under
// dir, which it removes again.
func probeArtifacts(tr *tracer, bases []*pipeline.Base, cells []cell, sample []int, dir string, t *tally, ps *probeStats) error {
	var arts []artifact
	for _, b := range bases {
		var buf bytes.Buffer
		var err error
		tr.call("pipeline.Encode", -1, func() { err = pipeline.EncodeSchedule(&buf, b.Sched) })
		if err != nil {
			return err
		}
		m := b.Machine
		arts = append(arts, artifact{stage: "sched", payload: buf.Bytes(), graph: b.Graph,
			decode: func(p []byte) ([]byte, error) {
				s, err := pipeline.DecodeSchedule(bytes.NewReader(p), m)
				if err != nil {
					return nil, err
				}
				var out bytes.Buffer
				err = pipeline.EncodeSchedule(&out, s)
				return out.Bytes(), err
			}})
	}
	for _, ui := range sample {
		res := cells[ui].res
		var buf bytes.Buffer
		var err error
		tr.call("pipeline.Encode", int32(ui), func() { err = pipeline.EncodeModelResult(&buf, res) })
		if err != nil {
			return err
		}
		m := res.Sched.Mach
		arts = append(arts, artifact{stage: "eval", payload: buf.Bytes(), graph: res.Graph,
			decode: func(p []byte) ([]byte, error) {
				r, err := pipeline.DecodeModelResult(bytes.NewReader(p), m)
				if err != nil {
					return nil, err
				}
				var out bytes.Buffer
				err = pipeline.EncodeModelResult(&out, r)
				return out.Bytes(), err
			}})
	}

	// Decode times only the decoder; re-encoding for the round-trip check
	// happens outside the span.
	roundTrip := ""
	for _, a := range arts {
		ps.artifactBytes += len(a.payload)
		var again []byte
		var err error
		tr.call("pipeline.Decode", -1, func() { again, err = a.decode(a.payload) })
		if err == nil && !bytes.Equal(again, a.payload) {
			err = fmt.Errorf("re-encoding differs")
		}
		var g bytes.Buffer
		if err == nil {
			err = a.graph.Encode(&g)
		}
		if err == nil {
			tr.call("ddg.Decode", -1, func() { _, err = ddg.Decode(bytes.NewReader(g.Bytes())) })
		}
		if err != nil && roundTrip == "" {
			roundTrip = fmt.Sprintf("%s artifact of %s: %v", a.stage, a.graph.LoopName, err)
		}
	}
	t.check("codec round trip", roundTrip == "", roundTrip)

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]string, len(arts))
	for i, a := range arts {
		keys[i] = digest(a.payload)
		tr.call("store.Put", -1, func() { err = st.Put(a.stage, keys[i], a.payload) })
		if err != nil {
			return err
		}
	}
	readBack := ""
	for i, a := range arts {
		var got []byte
		var ok bool
		tr.call("store.Get", -1, func() { got, ok = st.Get(a.stage, keys[i]) })
		if (!ok || !bytes.Equal(got, a.payload)) && readBack == "" {
			readBack = fmt.Sprintf("%s artifact of %s did not read back", a.stage, a.graph.LoopName)
		}
	}
	t.check("store read-back", readBack == "", readBack)
	ps.storeFaults = st.Stats().Faults
	return nil
}

// compiled is the spill.Scheduler that hands vm.VerifyModelWith a cell
// the replay already compiled, so the VM check runs on the replay's own
// result.
type compiled struct{ res *pipeline.ModelResult }

func (c compiled) Compile(context.Context, *ddg.Graph, *machine.Config, core.Model, int) (*pipeline.ModelResult, error) {
	return c.res, nil
}

func (compiled) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	return sched.Run(g, m, opts)
}

// probeMetrics reduces the probe's spans and counts to per-layer
// metrics.
func probeMetrics(spans []span, ps probeStats) map[string]float64 {
	durs := map[string][]float64{}
	total := map[string]float64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		d := (s.End - s.Start).Seconds()
		durs[s.Name] = append(durs[s.Name], d)
		total[s.Name] += d
	}
	us := func(name string, p float64) float64 { return percentile(durs[name], p) * 1e6 }
	fitOK := 0.0
	if ps.fitCalls > 0 {
		fitOK = float64(ps.fitOK) / float64(ps.fitCalls)
	}
	return map[string]float64{
		"sched.p50_us":              us("sched.Run", 50),
		"sched.p99_us":              us("sched.Run", 99),
		"lifetime.compute_p50_us":   us("lifetime.Compute", 50),
		"lifetime.compute_p99_us":   us("lifetime.Compute", 99),
		"regalloc.first_fit_p50_us": us("regalloc.FirstFit", 50),
		"regalloc.first_fit_p99_us": us("regalloc.FirstFit", 99),
		"regalloc.fits_in_p50_us":   us("regalloc.FitsIn", 50),
		"core.classify_p50_us":      us("core.Classify", 50),
		"core.swap_p50_us":          us("core.Swap", 50),
		"core.swap_p99_us":          us("core.Swap", 99),
		"core.requirement_s":        total["core.Requirement"],
		"core.fit_calls":            float64(ps.fitCalls),
		"core.fit_ok_ratio":         fitOK,
		"core.fit_s":                total["core.Fit"],
		"core.fit_p50_us":           us("core.Fit", 50),
		"core.fit_p99_us":           us("core.Fit", 99),
		"pipeline.encode_s":         total["pipeline.Encode"],
		"pipeline.decode_s":         total["pipeline.Decode"],
		"pipeline.decode_p99_us":    us("pipeline.Decode", 99),
		"pipeline.artifact_bytes":   float64(ps.artifactBytes),
		"ddg.decode_p50_us":         us("ddg.Decode", 50),
		"ddg.decode_p99_us":         us("ddg.Decode", 99),
		"store.put_s":               total["store.Put"],
		"store.put_p99_us":          us("store.Put", 99),
		"store.get_s":               total["store.Get"],
		"store.get_p99_us":          us("store.Get", 99),
		"store.faults":              float64(ps.storeFaults),
		"vm.verified_cells":         float64(ps.verified),
		"vm.verify_p50_ms":          percentile(durs["vm.Verify"], 50) * 1e3,
	}
}
