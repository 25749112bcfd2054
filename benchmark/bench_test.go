package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{0.5, 0.7, 0.2}, 0.2, 0.5, 0.7},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
}

func TestPooled(t *testing.T) {
	// The second corpus has an extra sample from a partial last round; it
	// must not pull the value toward that corpus.
	s := pooled([][]float64{{1, 3}, {10, 11, 12}, nil})
	if s.N != 5 || s.Median != (2+11)/2.0 || s.Q1 != (0.5+10)/2.0 || s.Q3 != (3.5+12)/2.0 {
		t.Errorf("pooled = %+v", s)
	}
	if s := pooled([][]float64{nil}); s.N != 0 || !math.IsNaN(s.Median) {
		t.Errorf("pooled of no samples = %+v", s)
	}
}

func TestJudge(t *testing.T) {
	wall := specMetric{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	setup := specMetric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}
	rate := specMetric{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	cases := []struct {
		name string
		m    specMetric
		a, b []float64
		want verdict
	}{
		{"inside", wall, steady, []float64{1.03, 1.04, 1.02, 1.05, 1.03, 1.04}, inside},
		{"worse", wall, steady, []float64{1.20, 1.21, 1.19, 1.22, 1.20, 1.18}, worse},
		{"better", wall, steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82, 0.78}, better},
		{"higher is better", rate, steady, []float64{0.80, 0.81, 0.79, 0.80, 0.82, 0.78}, worse},
		{"unresolved", wall, steady, []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.4}, unresolved},
		{"wide but every run better", wall, steady, []float64{0.5, 0.9, 0.6, 0.8, 0.55, 0.85}, better},
		// 20 ms -> 24 ms is 20% worse, yet within the 5 ms floor.
		{"setup floor", setup, []float64{0.020, 0.021, 0.019}, []float64{0.024, 0.024, 0.023}, inside},
		{"setup beyond floor", setup, []float64{0.020, 0.021, 0.019}, []float64{0.030, 0.031, 0.029}, worse},
	}
	for _, c := range cases {
		if got, detail := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s (%s), want %s", c.name, got, detail, c.want)
		}
	}
}

func writeRecords(t *testing.T, path string, recs ...record) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	host := provenance{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NProc: 2, FS: "tmpfs"}
	rec := func(p provenance, wall float64) record {
		return record{Workload: "w", Provenance: p, Correct: true, Attempted: 1,
			Metrics: map[string]metricRecord{"wall_s": {Unit: "s", summary: summary{N: 1, Median: wall}}}}
	}
	a, b := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	writeRecords(t, a, rec(host, 1.0), rec(host, 1.01), rec(host, 0.99))
	writeRecords(t, b, rec(host, 1.3), rec(host, 1.31), rec(host, 1.29))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, spec, a, b)
	if err != nil || !regressed || !strings.Contains(out.String(), "worse") {
		t.Errorf("30%% slower: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	// A workload that crashed on the change left no record.
	crashed := rec(host, 1.0)
	crashed.Workload = "other"
	writeRecords(t, b, crashed)
	out.Reset()
	regressed, err = compareFiles(&out, spec, a, b)
	if err != nil || !regressed || !strings.Contains(out.String(), "missing") {
		t.Errorf("no records for the workload: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	other := host
	other.NProc = 4
	writeRecords(t, b, rec(other, 1.0))
	if _, err := compareFiles(&out, spec, a, b); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Errorf("records from different hosts compared, err = %v", err)
	}
}

func TestChecksFire(t *testing.T) {
	out := []byte("table\nrow 1\nstage schedule: 3 requests, 3 computed\n")
	ref := digest(body(out))

	var tl tally
	warm := []byte("table\nrow 1\nstage schedule: 3 requests, 0 computed, 3 from disk\n")
	checkSame(&tl, "trailer differs", ref, digest(body(warm)))
	if tl.failed != 0 {
		t.Fatalf("stage trailer lines must not count: %v", tl.failures)
	}

	mutated := bytes.Clone(out)
	mutated[3] ^= 1
	checkSame(&tl, "mutated byte", ref, digest(body(mutated)))
	checkSame(&tl, "warm body differs from cold", ref, digest(body([]byte("table\nrow 2\n"))))
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("output checks: attempted %d failed %d, want 3 and 2", tl.attempted, tl.failed)
	}

	tl = tally{}
	golden := map[string]string{"all -seed 1995": ref}
	checkGolden(&tl, golden, "all -seed 1995", ref)
	checkGolden(&tl, map[string]string{"all -seed 1995": digest([]byte("x"))}, "all -seed 1995", ref)
	checkGolden(&tl, golden, "all -seed 7", ref) // no committed digest: not a check
	if tl.attempted != 2 || tl.failed != 1 {
		t.Errorf("golden checks: attempted %d failed %d, want 2 and 1", tl.attempted, tl.failed)
	}

	// A pinned corpus that stops converging is a failed reference run, not
	// a corpus to skip; an unpinned one is skipped and counts nothing.
	tl = tally{}
	noConv := errors.New("ncdrf all -seed 1995: exit status 1: loop x did not converge")
	if checkReference(&tl, golden, "all -seed 1995", sample{}, noConv) {
		t.Error("a corpus pinned by golden was skipped")
	}
	if !checkReference(&tl, golden, "all -seed 7", sample{}, noConv) {
		t.Error("an unpinned non-converging corpus was not skipped")
	}
	if checkReference(&tl, golden, "all -seed 7", sample{}, errors.New("signal: killed")) {
		t.Error("a crash was skipped")
	}
	checkReference(&tl, golden, "all -seed 1995", sample{digest: ref}, nil)
	if tl.attempted != 4 || tl.failed != 2 {
		t.Errorf("reference runs: attempted %d failed %d, want 4 and 2: %v", tl.attempted, tl.failed, tl.failures)
	}

	tl = tally{}
	stream := []byte("{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n")
	rows := [][]byte{[]byte("{\"a\":1}\n"), []byte("{\"a\":2}\n"), []byte("{\"a\":3}\n")}
	checkRows(&tl, stream, rows)
	checkRows(&tl, stream, rows[:2])                            // dropped row
	checkRows(&tl, stream, [][]byte{rows[0], rows[2], rows[1]}) // reordered rows
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("row checks: attempted %d failed %d, want 3 and 2: %v", tl.attempted, tl.failed, tl.failures)
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := golden[strings.Join(w.args(1995, ""), " ")]; !ok {
			t.Errorf("%s: no committed digest for seed 1995", w.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesCode checks BENCHMARK.json against the limits its
// reader enforces and against what this program reports.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, want 1..60 and the --seconds default %d", spec.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	var names []string
	for _, w := range spec.Workloads {
		name(w.Name)
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	setup := false
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Unit != unitOf(m.Name) {
			t.Errorf("%s: unit %q, the program reports %q", m.Name, m.Unit, unitOf(m.Name))
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("%s has a larger bound than setup_s", o.Name)
				}
			}
		}
	}
	if !setup {
		t.Error("BENCHMARK.json needs setup_s in seconds, lower is better")
	}
}

// TestEndToEnd runs every workload, shrunk to 12 loops and a two-point
// register axis, through the whole path in both modes — build, timed
// runs, checks, traced replay, probes and the result — and checks that
// the result reports exactly the metrics BENCHMARK.json names, with
// their units.
func TestEndToEnd(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	out := filepath.Join(work, "records.ndjson")
	p := plan{corpora: 1, minRounds: 2}
	for _, w := range workloads {
		w.loops = 12
		if w.curve != nil {
			c := *w.curve
			c.hi = c.lo + c.step
			w.curve = &c
		}
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), "..", work, w, p, 7, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
	recs, err := readRecords(out)
	if err != nil || len(recs) != 2*len(workloads) {
		t.Errorf("%d records appended (err %v), want %d", len(recs), err, 2*len(workloads))
	}
	if _, err := os.Stat(out + ".trace.json"); err != nil {
		t.Error(err)
	}
}
