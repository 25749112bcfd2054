// Command ncdrf-bench is the repository benchmark. It builds the ncdrf
// CLI from source, times each workload's command as a child process from
// outside, checks the outputs, and prints one JSON result line:
//
//	ncdrf-bench --workload paper-all --seed 1995 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics of untraced CLI runs;
// --trace 1 replays the workload in process through the layers' exported
// functions and reports per-layer metrics. --out FILE appends the full
// record (medians, quartiles, provenance, failed checks) to FILE and,
// with --trace 1, writes the spans to FILE.trace.json.
//
//	ncdrf-bench -compare parent.ndjson change.ndjson
//
// compares two sets of records metric by metric against the bounds in
// BENCHMARK.json. Run it from the repository root; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// nowMono reads the monotonic clock for interval measurement.
func nowMono() time.Time {
	//lint:allow wallclock -- benchmark timing is the harness's product; only durations are reported
	return time.Now()
}

// defaultSeconds is the measuring time when --seconds is not given; it
// equals BENCHMARK.json's run_seconds (checked by TestSpecMatchesCode).
const defaultSeconds = 25

// bench is one benchmark invocation's environment.
type bench struct {
	root   string // repository checkout
	work   string // scratch directory for binaries and cache directories
	bin    string // the built ncdrf binary
	nproc  int
	golden map[string]string
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1995, "seed the workload's corpora are derived from")
	seconds := flag.Float64("seconds", defaultSeconds, "how long to measure")
	traceFlag := flag.Int("trace", 0, "0: untraced end-to-end runs; 1: traced in-process replay")
	out := flag.String("out", "", "append the full record to this file")
	compare := flag.Bool("compare", false, "compare two record files against the bounds in BENCHMARK.json: -compare a.ndjson b.ndjson")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ncdrf-bench -compare a.ndjson b.ndjson")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ncdrf-bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdrf-bench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	p := plan{corpora: 3, minRounds: 1, seconds: *seconds}
	res, err := run(ctx, ".", filepath.Join(".bench_build", "work"), w, p, *seed, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdrf-bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ncdrf-bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full account of one run, as --out appends it.
type record struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Trace      bool                    `json:"trace"`
	Provenance provenance              `json:"provenance"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Failures   []string                `json:"failures,omitempty"`
	Metrics    map[string]metricRecord `json:"metrics"`
}

type metricRecord struct {
	Unit string `json:"unit"`
	summary
}

// unitOf derives a metric's unit from its name's suffix; BENCHMARK.json
// states the same units (checked by TestSpecMatchesCode).
func unitOf(name string) string {
	suffixes := []struct{ suffix, unit string }{
		{"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_mib", "MiB"},
		{"_bytes", "bytes"}, {"_ratio", "ratio"}, {"_frac", "ratio"},
	}
	for _, s := range suffixes {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// run builds ncdrf under work, measures one workload and returns the
// result line. An error means no result: the checkout could not be built
// or a set-up step failed.
func run(ctx context.Context, root, work string, w workload, p plan, seed int64, traced bool, out string) (*result, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "ncdrf")); err != nil {
		return nil, fmt.Errorf("%s is not an ncdrf checkout: %w", root, err)
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	b := &bench{root: root, work: work, bin: filepath.Join(work, "ncdrf"), nproc: runtime.NumCPU()}
	build := exec.CommandContext(ctx, "go", "build", "-o", b.bin, "./cmd/ncdrf")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ncdrf: %v\n%s", err, msg)
	}
	if b.golden, err = loadGolden(); err != nil {
		return nil, err
	}
	prov, err := b.provenance(ctx)
	if err != nil {
		return nil, err
	}

	var t tally
	var metrics map[string]summary
	var spans []span
	if traced {
		metrics, spans, err = b.runTrace(ctx, w, p, seed, &t)
	} else {
		metrics, err = b.runE2E(ctx, w, p, seed, &t)
	}
	if err != nil {
		return nil, err
	}

	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	rec := record{Workload: w.name, Seed: seed, Trace: traced, Provenance: prov,
		Correct: res.Correct, Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Metrics: map[string]metricRecord{}}
	for name, s := range metrics {
		res.Metrics[name] = metricValue{Value: s.Median, Unit: unitOf(name)}
		rec.Metrics[name] = metricRecord{Unit: unitOf(name), summary: s}
	}
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d trace=%v: %d operations, %d failed\n", w.name, seed, traced, t.attempted, t.failed)
	for _, name := range slices.Sorted(maps.Keys(metrics)) {
		s := metrics[name]
		fmt.Fprintf(os.Stderr, "  %-28s %12.6g %-6s n=%d q1=%.6g q3=%.6g\n", name, s.Median, unitOf(name), s.N, s.Q1, s.Q3)
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return nil, err
		}
		if traced {
			if err := writeSpans(out+".trace.json", spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the traced replay's spans as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
