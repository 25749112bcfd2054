package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// specFile is the part of BENCHMARK.json this program reads.
type specFile struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*specFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s specFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// setupFloor is the absolute slack setup_s always gets: for most
// workloads set-up lasts tens of milliseconds, where a relative bound
// falls below process-start jitter.
const setupFloor = 0.005

type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	inside     verdict = "inside"
	unresolved verdict = "unresolved"
)

// judge compares one metric's per-run values from the parent (a) and the
// change (b). A median that moved by more than the bound is better or
// worse; when either side's quartile spread is wider than the bound the
// pair is unresolved, unless every run of b beats every run of a.
func judge(m specMetric, a, b []float64) (verdict, string) {
	sa, sb := summarize(a), summarize(b)
	allowed := m.Bound * sa.Median
	if m.Name == "setup_s" {
		allowed = max(allowed, setupFloor)
	}
	worseBy := sb.Median - sa.Median
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	detail := fmt.Sprintf("median %.6g -> %.6g %s (n=%d/%d, allowed %.3g, spread %.3g/%.3g)",
		sa.Median, sb.Median, m.Unit, sa.N, sb.N, allowed, sa.Q3-sa.Q1, sb.Q3-sb.Q1)
	switch {
	case max(sa.Q3-sa.Q1, sb.Q3-sb.Q1) > allowed:
		if beatsAll(m.Better, a, b) {
			return better, detail
		}
		return unresolved, detail
	case worseBy > allowed:
		return worse, detail
	case -worseBy > allowed:
		return better, detail
	}
	return inside, detail
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(direction string, a, b []float64) bool {
	if direction == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareFiles judges every (workload, end-to-end metric) pair of two
// record files and writes one line per pair. It reports regressed when a
// pair is worse, unresolved or missing from either file, or the change
// failed an operation, and refuses records measured on different hosts or
// toolchains.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	var hosts []string
	for _, r := range append(slices.Clone(a), b...) {
		if h := r.Provenance.host(); !slices.Contains(hosts, h) {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) > 1 {
		return false, fmt.Errorf("refusing to compare records with different provenance: %s", strings.Join(hosts, " | "))
	}
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Median)
			}
		}
		return out
	}
	for _, r := range b {
		if r.Failed > 0 {
			fmt.Fprintf(w, "%-12s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			regressed = true
		}
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				// A run that fails before its result writes no record, so a
				// missing pair may be a crash; it is never a pass.
				fmt.Fprintf(w, "%-12s %-14s missing (%d/%d records)\n", wl.Name, m.Name, len(av), len(bv))
				regressed = true
				continue
			}
			v, detail := judge(m, av, bv)
			fmt.Fprintf(w, "%-12s %-14s %-10s %s\n", wl.Name, m.Name, v, detail)
			if v == worse || v == unresolved {
				regressed = true
			}
		}
	}
	return regressed, nil
}
