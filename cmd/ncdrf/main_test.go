package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/experiment"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/store"
	"ncdrf/internal/sweep"
)

var ctx0 = context.Background()

// TestMain lets a test run this binary as the ncdrf command itself: with
// NCDRF_TEST_MAIN=1 in the environment the process runs main instead of
// the tests, so exit codes and stderr come from the real entry point.
func TestMain(m *testing.M) {
	if os.Getenv("NCDRF_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs `ncdrf args...` in a child process and returns its exit
// code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NCDRF_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	}
	t.Fatalf("ncdrf %v: %v", args, err)
	return 0, ""
}

func testEng() *sweep.Engine { return sweep.New(0) }

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// printed; the command must succeed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	out, errRun := captureAny(t, fn)
	if errRun != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

// captureAny is capture for commands that are allowed to fail: it
// returns the captured stdout alongside the command's error.
func captureAny(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	return <-done, errRun
}

func TestCmdExample(t *testing.T) {
	out := capture(t, func() error { return cmdExample(nil) })
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "42", "29", "23", "II=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("example output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTable1KernelsOnly(t *testing.T) {
	out := capture(t, func() error { return cmdTable1(ctx0, testEng(), []string{"-kernels-only"}) })
	if !strings.Contains(out, "P2L6") {
		t.Fatalf("table1 output missing P2L6:\n%s", out)
	}
	csv := capture(t, func() error { return cmdTable1(ctx0, testEng(), []string{"-kernels-only", "-csv"}) })
	if !strings.HasPrefix(csv, "config,") {
		t.Fatalf("csv output malformed:\n%s", csv)
	}
}

func TestCmdFigsSmall(t *testing.T) {
	out := capture(t, func() error { return cmdFigCDF(ctx0, testEng(), []string{"-loops", "15", "-seed", "3"}, false) })
	if !strings.Contains(out, "Figure 6 (latency 3)") || !strings.Contains(out, "Figure 6 (latency 6)") {
		t.Fatalf("fig6 incomplete:\n%s", out)
	}
	chart := capture(t, func() error {
		return cmdFigCDF(ctx0, testEng(), []string{"-loops", "15", "-seed", "3", "-chart"}, true)
	})
	if !strings.Contains(chart, "legend:") {
		t.Fatalf("chart missing legend:\n%s", chart)
	}
}

func TestCmdScheduleAndAlloc(t *testing.T) {
	out := capture(t, func() error { return cmdSchedule([]string{"-loop", "daxpy", "-lat", "6"}) })
	if !strings.Contains(out, "ResMII") || !strings.Contains(out, "row 0:") {
		t.Fatalf("schedule output wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdSchedule([]string{"-example-machine"}) })
	if !strings.Contains(out, "II=1") {
		t.Fatalf("example-machine schedule wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdAlloc([]string{"-loop", "lfk7-eos", "-lat", "6"}) })
	if !strings.Contains(out, "unified") || !strings.Contains(out, "swapped") {
		t.Fatalf("alloc output wrong:\n%s", out)
	}
}

func TestCmdKernelsGenDot(t *testing.T) {
	out := capture(t, func() error { return cmdKernels(nil) })
	if !strings.Contains(out, "daxpy") || !strings.Contains(out, "paper-example") {
		t.Fatalf("kernels listing wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdGen([]string{"-n", "3", "-seed", "9"}) })
	if strings.Count(out, "loop syn") != 3 {
		t.Fatalf("gen output wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdDot([]string{"-loop", "daxpy"}) })
	if !strings.Contains(out, "digraph") {
		t.Fatalf("dot output wrong:\n%s", out)
	}
}

func TestCmdRegfileStatsListing(t *testing.T) {
	out := capture(t, func() error { return cmdRegfile(nil) })
	if !strings.Contains(out, "non-consistent-dual") {
		t.Fatalf("regfile output wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdStats([]string{"-kernels-only"}) })
	if !strings.Contains(out, "read exactly once") {
		t.Fatalf("stats output wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdListing([]string{"-example-machine", "-model", "swapped"}) })
	if !strings.Contains(out, "rotating registers") {
		t.Fatalf("listing output wrong:\n%s", out)
	}
	out = capture(t, func() error { return cmdListing([]string{"-model", "unified", "-loop", "daxpy"}) })
	if !strings.Contains(out, "file 0:") {
		t.Fatalf("unified listing wrong:\n%s", out)
	}
}

func TestCmdObject(t *testing.T) {
	out := capture(t, func() error {
		return cmdObject([]string{"-example-machine", "-model", "swapped"})
	})
	for _, want := range []string{"brtop", "p[", "kernel of paper-example"} {
		if !strings.Contains(out, want) {
			t.Fatalf("object output missing %q:\n%s", want, out)
		}
	}
	if err := cmdObject([]string{"-model", "bogus"}); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestCmdVerifySingleLoop(t *testing.T) {
	out := capture(t, func() error {
		return cmdVerify([]string{"-loop", "daxpy", "-model", "swapped", "-iters", "6"})
	})
	if !strings.Contains(out, "bit-identical") {
		t.Fatalf("verify output wrong:\n%s", out)
	}
}

func TestCmdClustersSmall(t *testing.T) {
	out := capture(t, func() error { return cmdClusters(ctx0, testEng(), []string{"-kernels-only", "-lat", "3"}) })
	if !strings.Contains(out, "cluster scaling") {
		t.Fatalf("clusters output wrong:\n%s", out)
	}
}

func TestCmdSweepJSON(t *testing.T) {
	out := capture(t, func() error {
		return cmdSweep(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "6", "-models", "unified,swapped", "-regs", "24,48", "-stats"})
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 22 kernels x 1 machine x 2 models x 2 sizes, plus the stats object.
	nKernels := strings.Count(capture(t, func() error { return cmdKernels(nil) }), "\n") - 1
	want := nKernels*2*2 + 1
	if len(lines) != want {
		t.Fatalf("emitted %d JSON lines, want %d:\n%s", len(lines), want, out)
	}
	var r struct {
		Loop    string `json:"loop"`
		Machine string `json:"machine"`
		Model   string `json:"model"`
		Regs    int    `json:"regs"`
		II      int    `json:"ii"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &r); err != nil {
		t.Fatalf("first line is not JSON: %v\n%s", err, lines[0])
	}
	if r.Loop == "" || r.Machine != "eval-L6" || r.II < 1 {
		t.Fatalf("malformed result: %+v", r)
	}
	var st map[string]uint64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil {
		t.Fatalf("stats line is not JSON: %v", err)
	}
	// A cold run schedules every request exactly once: each group's
	// models and sizes share one spill walk, so no schedule is requested
	// twice.
	if st["stage_schedule_computed"] == 0 || st["stage_schedule_requests"] != st["stage_schedule_computed"] {
		t.Fatalf("cold-run schedule stats want requests = computed > 0: %v", st)
	}
}

func TestCmdSweepEmptyLists(t *testing.T) {
	for _, args := range [][]string{
		{"-lats", ""},
		{"-models", " "},
		{"-regs", ","},
	} {
		if err := cmdSweep(ctx0, testEng(), args); err == nil {
			t.Fatalf("empty list %v must error", args)
		}
	}
}

// TestCmdSweepLatsAreIntegers pins the -lats contract the help text
// documents: latencies are whole cycles, so fractional values are
// rejected up front instead of being silently mangled.
func TestCmdSweepLatsAreIntegers(t *testing.T) {
	for _, bad := range []string{"3.5", "3,6.0", "1e1"} {
		if err := cmdSweep(ctx0, testEng(), []string{"-lats", bad}); err == nil {
			t.Fatalf("fractional latency list %q must error", bad)
		}
	}
	out := capture(t, func() error {
		return cmdSweep(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "3", "-models", "ideal", "-regs", "0"})
	})
	if !strings.Contains(out, `"machine":"eval-L3"`) {
		t.Fatalf("integer latency rejected:\n%s", out)
	}
}

// TestCmdSweepStatsEntries checks the -stats object surfaces the
// per-stage counters and no key that can only read 0: no stage keeps
// an entry count, and the schedule and base stages have no hit keys —
// they keep and persist nothing, so every request is computed.
func TestCmdSweepStatsEntries(t *testing.T) {
	out := capture(t, func() error {
		return cmdSweep(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "6", "-models", "unified", "-regs", "32", "-stats"})
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var st map[string]uint64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil {
		t.Fatalf("stats line is not JSON: %v", err)
	}
	for _, key := range []string{
		"stage_schedule_requests", "stage_schedule_computed", "stage_base_requests", "stage_base_computed",
		"stage_eval_requests", "stage_eval_computed", "stage_eval_memory_hits", "stage_eval_disk_hits",
	} {
		if _, ok := st[key]; !ok {
			t.Fatalf("stats object missing %q: %v", key, st)
		}
	}
	if len(st) != 8 {
		t.Fatalf("stats object has %d keys, want the 8 above: %v", len(st), st)
	}
	for _, stage := range []string{"schedule", "base"} {
		if st["stage_"+stage+"_computed"] != st["stage_"+stage+"_requests"] {
			t.Fatalf("%s requests not all computed: %v", stage, st)
		}
	}
	if st["stage_base_requests"] == 0 {
		t.Fatalf("sweep requested no base: %v", st)
	}
	if st["stage_eval_computed"] == 0 {
		t.Fatalf("sweep computed no eval cell: %v", st)
	}
	if st["stage_eval_disk_hits"] != 0 {
		t.Fatalf("disk hits without a store: %v", st)
	}
}

// TestCmdAllCacheDirIncremental is the CLI acceptance scenario: a second
// `ncdrf all -cache-dir` run over the same corpus computes no eval cell
// or requirement row, builds only the bases and schedules VerifySample
// compiles (one per 25th loop), and emits byte-identical tables/figures
// (everything but the run-dependent stats trailer).
func TestCmdAllCacheDirIncremental(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-kernels-only", "-cache-dir", dir}
	first := capture(t, func() error { return cmdAll(ctx0, testEng(), args) })
	second := capture(t, func() error { return cmdAll(ctx0, testEng(), args) })

	stripTrailer := func(out string) (body string, trailer []string) {
		for _, line := range strings.SplitAfter(out, "\n") {
			if strings.HasPrefix(line, "stage ") {
				trailer = append(trailer, strings.TrimSuffix(line, "\n"))
			} else {
				body += line
			}
		}
		return body, trailer
	}
	body1, trailer1 := stripTrailer(first)
	body2, trailer2 := stripTrailer(second)
	if len(trailer1) != 3 || len(trailer2) != 3 {
		t.Fatalf("trailer shape wrong:\n%v\n%v", trailer1, trailer2)
	}
	if body1 != body2 {
		t.Fatalf("second run not byte-identical:\nfirst:\n%s\nsecond:\n%s", body1, body2)
	}
	verified := (len(loops.Kernels()) + 24) / 25
	for i, stage := range []string{"schedule", "base"} {
		if want := fmt.Sprintf("stage %s: %d requests, %d computed", stage, verified, verified); trailer2[i] != want {
			t.Fatalf("warm trailer %q, want %q", trailer2[i], want)
		}
	}
	if !strings.Contains(trailer2[2], " 0 computed,") || strings.Contains(trailer2[2], " 0 from disk") {
		t.Fatalf("warm run recomputed evals: %q", trailer2[2])
	}
	// The cold run must already advertise the disk tier in its eval line.
	if !strings.HasSuffix(trailer1[2], " 0 from disk") {
		t.Fatalf("cold run trailer missing disk tier: %q", trailer1[2])
	}
}

func TestCmdSweepBadFlags(t *testing.T) {
	if err := cmdSweep(ctx0, testEng(), []string{"-models", "bogus"}); err == nil {
		t.Fatal("unknown model must error")
	}
	if err := cmdSweep(ctx0, testEng(), []string{"-lats", "x"}); err == nil {
		t.Fatal("bad latency list must error")
	}
}

// TestCmdBadNumericFlags checks that every out-of-range numeric flag
// fails with exit status 1 and an error naming the flag, instead of
// panicking (machine.Eval rejects latencies below 1) or being silently
// replaced (loopgen.Generate substitutes its default parameters for a
// loop count below 1).
func TestCmdBadNumericFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"schedule", "-lat", "0"}, "-lat: latency must be >= 1, got 0"},
		{[]string{"alloc", "-lat", "-2"}, "-lat: latency must be >= 1, got -2"},
		{[]string{"verify", "-lat", "0"}, "-lat: latency must be >= 1, got 0"},
		{[]string{"listing", "-lat", "0"}, "-lat: latency must be >= 1, got 0"},
		{[]string{"object", "-lat", "0"}, "-lat: latency must be >= 1, got 0"},
		{[]string{"clusters", "-kernels-only", "-lat", "0"}, "-lat: latency must be >= 1, got 0"},
		{[]string{"gen", "-n", "0", "-seed", "7"}, "-n: loop count must be >= 1, got 0"},
		{[]string{"all", "-loops", "-5"}, "-loops: loop count must be >= 1, got -5"},
		{[]string{"table1", "-loops", "0"}, "-loops: loop count must be >= 1, got 0"},
		{[]string{"stats", "-loops", "0"}, "-loops: loop count must be >= 1, got 0"},
		{[]string{"sweep", "-loops", "0"}, "-loops: loop count must be >= 1, got 0"},
		{[]string{"curve", "-loops", "0"}, "-loops: loop count must be >= 1, got 0"},
		{[]string{"verify", "-regs", "-3"}, "-regs: sizes must be >= 0 (0 = unlimited), got -3"},
		{[]string{"verify", "-synthetic", "-2"}, "-synthetic: loop count must be >= 0, got -2"},
		{[]string{"verify", "-iters", "0"}, "-iters: iteration count must be >= 1, got 0"},
		{[]string{"verify", "-iters", "-5"}, "-iters: iteration count must be >= 1, got -5"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			code, stderr := runMain(t, c.args...)
			if code != 1 {
				t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr lacks %q:\n%s", c.want, stderr)
			}
			if strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
				t.Fatalf("command panicked:\n%s", stderr)
			}
		})
	}
}

// TestCmdBenchIsUnknown pins the removal of the in-process benchmark
// command: it is an unknown command (exit status 2) like any other.
func TestCmdBenchIsUnknown(t *testing.T) {
	code, stderr := runMain(t, "bench")
	if code != 2 || !strings.Contains(stderr, `unknown command "bench"`) {
		t.Fatalf("ncdrf bench: exit status %d, stderr:\n%s", code, stderr)
	}
}

func TestFindLoopErrors(t *testing.T) {
	if _, err := findLoop("definitely-missing"); err == nil {
		t.Fatal("unknown loop must error")
	}
	g, err := findLoop("")
	if err != nil || g.LoopName != "paper-example" {
		t.Fatalf("default loop wrong: %v %v", g, err)
	}
}

func TestCmdVerifyUnknownModel(t *testing.T) {
	if err := cmdVerify([]string{"-model", "bogus"}); err == nil {
		t.Fatal("unknown model must error")
	}
}

// TestCmdSweepShardMerge is the CLI acceptance scenario of the shard
// workflow: three `sweep -shard i/3 -o file` runs merge into the
// byte-identical stream of the unsharded run, in any argument order.
func TestCmdSweepShardMerge(t *testing.T) {
	args := []string{"-kernels-only", "-lats", "6", "-models", "unified,swapped", "-regs", "24,48"}
	single := capture(t, func() error { return cmdSweep(ctx0, testEng(), args) })

	dir := t.TempDir()
	var files []string
	for i := 1; i <= 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("s%d.ndjson", i))
		files = append(files, p)
		shardArgs := append(append([]string{}, args...),
			"-shard", fmt.Sprintf("%d/3", i), "-o", p)
		if out := capture(t, func() error { return cmdSweep(ctx0, testEng(), shardArgs) }); out != "" {
			t.Fatalf("sharded sweep with -o wrote to stdout: %q", out)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), `{"ncdrf_shard":`) {
			t.Fatalf("shard file %d missing header: %.60q", i, data)
		}
	}
	merged := capture(t, func() error { return cmdMerge([]string{files[2], files[0], files[1]}) })
	if merged != single {
		t.Fatalf("merged stream differs from unsharded run:\nmerged:\n%s\nsingle:\n%s", merged, single)
	}
	// -o on merge writes the same bytes to a file.
	out := filepath.Join(dir, "merged.ndjson")
	capture(t, func() error { return cmdMerge([]string{"-o", out, files[0], files[1], files[2]}) })
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != single {
		t.Fatal("merge -o differs from merge to stdout")
	}
}

// TestCmdSweepShardStatsToStdout checks that with -o the stats object
// goes to stdout, keeping the shard file exactly header + rows.
func TestCmdSweepShardStatsToStdout(t *testing.T) {
	p := filepath.Join(t.TempDir(), "s.ndjson")
	out := capture(t, func() error {
		return cmdSweep(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "3", "-models", "ideal", "-regs", "0",
			"-shard", "1/2", "-o", p, "-stats"})
	})
	var st map[string]uint64
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &st); err != nil {
		t.Fatalf("stdout is not the stats object: %v\n%s", err, out)
	}
	if _, ok := st["stage_eval_requests"]; !ok {
		t.Fatalf("stats object incomplete: %v", st)
	}
	if strings.Contains(readFileT(t, p), "stage_eval_requests") {
		t.Fatal("stats leaked into the shard file")
	}
}

func readFileT(t *testing.T, p string) string {
	t.Helper()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// captureStderr runs fn with os.Stderr redirected and returns what it
// printed there (stdout is captured and discarded via capture).
func captureStderr(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stderr = old
	out := <-done
	if errRun != nil {
		t.Fatalf("command failed: %v\nstderr:\n%s", errRun, out)
	}
	return out
}

// TestCmdCurveTables drives the default curve rendering and the -stats
// trailer: the acceptance property is visible in the counters — the
// base stage is requested and computed exactly once per (loop, machine)
// group however dense the register axis is.
func TestCmdCurveTables(t *testing.T) {
	out := capture(t, func() error {
		return cmdCurve(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "6", "-regs", "16:48:16", "-stats"})
	})
	for _, want := range []string{
		"register sensitivity (eval-L6, 44 loops): % of loops allocatable without spilling",
		"spill memory ops per iteration",
		"performance relative to ideal",
		"regs  ideal  unified  partitioned  swapped",
		"\nstage base: 44 requests, 44 computed\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("curve output missing %q:\n%s", want, out)
		}
	}
	csv := capture(t, func() error {
		return cmdCurve(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "6", "-regs", "16,32", "-csv"})
	})
	if !strings.HasPrefix(csv, "machine,model,regs,") {
		t.Fatalf("curve csv malformed:\n%s", csv)
	}
	chart := capture(t, func() error {
		return cmdCurve(ctx0, testEng(), []string{
			"-kernels-only", "-lats", "6", "-regs", "16:48:16", "-chart"})
	})
	if !strings.Contains(chart, "legend:") {
		t.Fatalf("curve chart missing legend:\n%s", chart)
	}
}

// TestCmdCurveShardMergeFrom is the curve acceptance scenario: a
// 3-shard curve run merges byte-identically into the unsharded -ndjson
// stream, and -from renders the merged stream without recomputing.
func TestCmdCurveShardMergeFrom(t *testing.T) {
	// 16+ registers so every cell converges: the rendering runs below
	// exit non-zero on failed cells by design (see
	// TestCmdCurveFailedCellsExitNonZero).
	args := []string{"-kernels-only", "-lats", "6", "-models", "unified,swapped", "-regs", "16:40:8"}
	single := capture(t, func() error {
		return cmdCurve(ctx0, testEng(), append(append([]string{}, args...), "-ndjson"))
	})
	sweepOut := capture(t, func() error {
		return cmdSweep(ctx0, testEng(), append(append([]string{}, args...), "-regs", "16,24,32,40"))
	})
	if single != sweepOut {
		t.Fatalf("curve -ndjson differs from the equivalent sweep stream:\ncurve:\n%s\nsweep:\n%s", single, sweepOut)
	}

	dir := t.TempDir()
	var files []string
	for i := 1; i <= 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("cs%d.ndjson", i))
		files = append(files, p)
		shardArgs := append(append([]string{}, args...), "-shard", fmt.Sprintf("%d/3", i), "-o", p)
		if out := capture(t, func() error { return cmdCurve(ctx0, testEng(), shardArgs) }); out != "" {
			t.Fatalf("sharded curve with -o wrote to stdout: %q", out)
		}
	}
	merged := filepath.Join(dir, "merged.ndjson")
	capture(t, func() error { return cmdMerge([]string{"-o", merged, files[1], files[2], files[0]}) })
	if got := readFileT(t, merged); got != single {
		t.Fatalf("3-shard curve merge differs from the unsharded run:\nmerged:\n%s\nsingle:\n%s", got, single)
	}

	direct := capture(t, func() error { return cmdCurve(ctx0, testEng(), args) })
	fromOut := capture(t, func() error { return cmdCurve(ctx0, testEng(), []string{"-from", merged}) })
	if fromOut != direct {
		t.Fatalf("-from render differs from the direct run:\nfrom:\n%s\ndirect:\n%s", fromOut, direct)
	}
	// A lone shard file must be refused with a pointer at merge.
	if err := cmdCurve(ctx0, testEng(), []string{"-from", files[0]}); err == nil || !strings.Contains(err.Error(), "merge") {
		t.Fatalf("-from of a shard file: %v", err)
	}

	// -from only renders: every flag that shapes or observes a
	// computation is refused by name, before any side effect (a
	// -cpuprofile file, a -cache-dir store) happens.
	for _, tc := range []struct{ flag, value string }{
		{"loops", "5"},
		{"seed", "7"},
		{"kernels-only", ""},
		{"lats", "3"},
		{"models", "ideal"},
		{"clusters", "4"},
		{"regs", "8:9"},
		{"ndjson", ""},
		{"shard", "1/2"},
		{"stats", ""},
		{"progress", ""},
		{"cpuprofile", filepath.Join(dir, "cpu.out")},
		{"memprofile", filepath.Join(dir, "mem.out")},
		{"cache-dir", filepath.Join(dir, "cache")},
	} {
		t.Run("from-rejects-"+tc.flag, func(t *testing.T) {
			args := []string{"-from", merged, "-" + tc.flag}
			if tc.value != "" {
				args = append(args, tc.value)
			}
			err := cmdCurve(ctx0, testEng(), args)
			if err == nil || !strings.Contains(err.Error(), "cannot be combined with -"+tc.flag) {
				t.Fatalf("-from with -%s: %v", tc.flag, err)
			}
			if tc.value != "" && strings.HasPrefix(tc.value, dir) {
				if _, err := os.Stat(tc.value); !os.IsNotExist(err) {
					t.Fatalf("-from with -%s created %s", tc.flag, tc.value)
				}
			}
		})
	}
	// The rendering flags and -o are what -from is for.
	for _, extra := range [][]string{{"-csv"}, {"-chart"}, {"-strict"}, {"-o", filepath.Join(dir, "rendered.txt")}} {
		if _, err := captureAny(t, func() error {
			return cmdCurve(ctx0, testEng(), append([]string{"-from", merged}, extra...))
		}); err != nil {
			t.Fatalf("-from with %v: %v", extra, err)
		}
	}
}

// TestCmdCurveFailedCells pins the degraded-curve contract: cells that
// fail to compile are data (the failed column), so the default run
// still succeeds with the tables rendered — but -strict turns the
// condition into the exit status, so a scripted `curve -strict &&
// publish` cannot treat a degraded curve as clean.
func TestCmdCurveFailedCells(t *testing.T) {
	failArgs := []string{"-kernels-only", "-lats", "6", "-models", "ideal,swapped", "-regs", "2"}
	// One engine for all three invocations: the non-converging spill
	// loops are deterministic failures, cached by the eval stage, so
	// only the first run pays for the 400-round divergences.
	eng := testEng()
	var out string
	warn := captureStderr(t, func() error {
		out = capture(t, func() error { return cmdCurve(ctx0, eng, failArgs) })
		return nil
	})
	if !strings.Contains(out, "register sensitivity") {
		t.Fatalf("default run must render the tables:\n%s", out)
	}
	if !strings.Contains(warn, "-strict makes this fatal") {
		t.Fatalf("default run must warn about failed cells on stderr:\n%s", warn)
	}
	_, err := captureAny(t, func() error {
		return cmdCurve(ctx0, eng, append(append([]string{}, failArgs...), "-strict"))
	})
	if err == nil || !strings.Contains(err.Error(), "failed to compile") {
		t.Fatalf("-strict with failing cells must error, got: %v", err)
	}
	// Matched-population baseline: even with most of the corpus failing
	// at 2 registers, relative performance must never exceed 1 (a model
	// cannot beat the ideal baseline over the same loops).
	csv := capture(t, func() error {
		return cmdCurve(ctx0, eng, append(append([]string{}, failArgs...), "-csv"))
	})
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n")[1:] {
		cells := strings.Split(line, ",")
		rel, spill := cells[len(cells)-1], cells[8]
		if rel != "" {
			var v float64
			if _, err := fmt.Sscanf(rel, "%f", &v); err != nil || v > 1.0+1e-9 {
				t.Fatalf("rel_perf %q exceeds ideal on a failing cell:\n%s", rel, line)
			}
		}
		if strings.HasPrefix(spill, "-") {
			t.Fatalf("negative spill ops %q on a failing cell:\n%s", spill, line)
		}
	}
}

// TestCmdCurveBadRegsSpecs pins the -regs axis validation.
func TestCmdCurveBadRegsSpecs(t *testing.T) {
	for _, bad := range []string{"", "x", "8:", ":8", "8:4", "-8:16", "8:16:0", "8:16:-2", "1:2:3:4", "0:99999999",
		"8,16,16,32", "32,16", "8,32,16"} {
		if err := cmdCurve(ctx0, testEng(), []string{"-kernels-only", "-regs", bad}); err == nil {
			t.Fatalf("-regs %q accepted", bad)
		}
	}
	got, err := parseRegsAxis("8:33:8")
	if err != nil || fmt.Sprint(got) != "[8 16 24 32]" {
		t.Fatalf("8:33:8 = %v, %v", got, err)
	}
	got, err = parseRegsAxis("8:16")
	if err != nil || len(got) != 9 {
		t.Fatalf("8:16 (default step 1) = %v, %v", got, err)
	}
	// Comma lists must be strictly ascending — a duplicate would
	// double-count its loops in the curve cell, a descending list is a
	// typo'd range — and each rejection names its own cause.
	if _, err := parseRegsAxis("8,16,16,32"); err == nil || !strings.Contains(err.Error(), "duplicate size 16") {
		t.Fatalf("duplicate comma entry: %v", err)
	}
	if _, err := parseRegsAxis("32,16"); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("descending comma entry: %v", err)
	}
}

// deadWriter fails every write, like a closed pipe.
type deadWriter struct{}

var errDeadWriter = errors.New("dead writer")

func (deadWriter) Write([]byte) (int, error) { return 0, errDeadWriter }

// TestStreamRowsCancelsOnDeadWriter: a failing output cancels the run
// instead of computing rows nobody will see. The first chunk write
// fails once the first machine's rows are ready, and the emitter never
// holds up the other workers, so the grid spans both latencies (88
// groups): a run that cancels stops well short of the whole grid, and
// one that does not computes all of it.
func TestStreamRowsCancelsOnDeadWriter(t *testing.T) {
	grid := sweep.Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{experiment.EvalN(2, 3), experiment.EvalN(2, 6)},
		Models:   core.Models[:],
		Regs:     []int{8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128},
	}
	t.Run("dense", func(t *testing.T) {
		// counted runs the executor on a fresh engine and reports how
		// many units it computed and whether it saw the cancel.
		counted := func(w io.Writer) (computed int64, canceled bool, err error) {
			var n atomic.Int64
			inner := denseExecutor(testEng(), grid, grid.Plan())
			err = streamRows(ctx0, func(ctx context.Context, write func([]byte, int), done func()) error {
				err := inner(ctx, write, func() { n.Add(1); done() })
				canceled = ctx.Err() != nil
				return err
			}, nil, w, nil)
			return n.Load(), canceled, err
		}
		full, _, err := counted(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		computed, canceled, err := counted(deadWriter{})
		if !errors.Is(err, errDeadWriter) || !strings.Contains(err.Error(), "writing results") {
			t.Fatalf("err = %v, want the wrapped writer error", err)
		}
		if !canceled {
			t.Fatal("the executor returned without its context being canceled")
		}
		t.Logf("computed %d of %d units", computed, full)
		if 4*computed >= 3*full {
			t.Fatalf("computed %d units after the writer died, at least 3/4 of a full run (%d)", computed, full)
		}
	})
}

// countingWriter records what reaches it and in how many writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestStreamRowsBuffersWrites: a row stream reaches the underlying
// writer in one write per 4 KiB or fewer, not one write per row, and
// every row gets there, with the bytes EncodeRow writes for the Result
// rows, by the time streamRows returns.
func TestStreamRowsBuffersWrites(t *testing.T) {
	grid := sweep.Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{experiment.EvalN(2, 3)},
		Models:   core.Models[:],
		Regs:     []int{16, 32, 64},
	}
	results, err := testEng().Rows(ctx0, grid)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range results {
		if err := pipeline.EncodeRow(&want, r); err != nil {
			t.Fatal(err)
		}
	}
	var w countingWriter
	if err := streamRows(ctx0, denseExecutor(testEng(), grid, grid.Plan()), nil, &w, nil); err != nil {
		t.Fatal(err)
	}
	if w.String() != want.String() {
		t.Fatalf("stream holds %d bytes, want the %d bytes of %d encoded rows", w.Len(), want.Len(), len(results))
	}
	if limit := w.Len()/4096 + 1; w.writes > limit || len(results) <= limit {
		t.Fatalf("%d rows (%d bytes) took %d writes, want at most %d", len(results), w.Len(), w.writes, limit)
	}
}

// TestStreamRowsProgressCountsEveryRow: -progress counts the rows of
// every chunk, so a stream of several chunks ends with its emitted
// count equal to its unit count, as is its done count, and every row
// is on the output.
func TestStreamRowsProgressCountsEveryRow(t *testing.T) {
	grid := sweep.Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{experiment.EvalN(2, 3), experiment.EvalN(2, 6)},
		Models:   core.Models[:],
		Regs:     []int{16, 24, 32, 40, 48, 56, 64, 80},
	}
	units := grid.Plan()
	var w countingWriter
	var stderr lockedBuffer
	eng := testEng()
	prog := startProgress(true, &stderr, eng, len(units))
	err := streamRows(ctx0, denseExecutor(eng, grid, units), nil, &w, prog)
	prog.close()
	if err != nil {
		t.Fatal(err)
	}
	if w.writes < 2 {
		t.Fatalf("the stream took %d write; the test needs several chunks", w.writes)
	}
	if lines := strings.Count(w.String(), "\n"); lines != len(units) {
		t.Fatalf("%d rows on the output, want %d", lines, len(units))
	}
	if done, emitted := prog.done.Load(), prog.emitted.Load(); done != int64(len(units)) || emitted != int64(len(units)) {
		t.Fatalf("progress counted %d done and %d emitted, want %d of each", done, emitted, len(units))
	}
	if want := fmt.Sprintf("progress: %d/%d units done (100.0%%), %d emitted", len(units), len(units), len(units)); !strings.Contains(stderr.String(), want) {
		t.Fatalf("progress summary %q missing:\n%s", want, stderr.String())
	}
}

// TestCmdSweepProgress checks the -progress reporter: a final summary
// line with unit totals and the eval hit rate lands on stderr, and
// none of it leaks into the result stream.
func TestCmdSweepProgress(t *testing.T) {
	var stdout string
	stderr := captureStderr(t, func() error {
		var err error
		stdout = capture(t, func() error {
			return cmdSweep(ctx0, testEng(), []string{
				"-kernels-only", "-lats", "6", "-models", "swapped", "-regs", "16,32", "-progress"})
		})
		return err
	})
	if !strings.Contains(stderr, "progress: 88/88 units done (100.0%), 88 emitted") {
		t.Fatalf("progress summary missing from stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, ", eval hit rate ") || !strings.Contains(stderr, "elapsed ") {
		t.Fatalf("progress line incomplete:\n%s", stderr)
	}
	if strings.Contains(stdout, "progress:") {
		t.Fatal("progress leaked into the result stream")
	}
	// curve shares the reporter.
	curveErr := captureStderr(t, func() error {
		capture(t, func() error {
			return cmdCurve(ctx0, testEng(), []string{
				"-kernels-only", "-lats", "6", "-models", "swapped", "-regs", "16,32", "-progress"})
		})
		return nil
	})
	if !strings.Contains(curveErr, "progress: 88/88 units done") {
		t.Fatalf("curve -progress summary missing:\n%s", curveErr)
	}
}

// TestCmdSweepBadShardSpecs checks -shard validation up front.
func TestCmdSweepBadShardSpecs(t *testing.T) {
	for _, bad := range []string{"0/3", "4/3", "x", "1-3", "1/x", "/3", "1/"} {
		err := cmdSweep(ctx0, testEng(), []string{"-kernels-only", "-shard", bad})
		if err == nil {
			t.Fatalf("-shard %q accepted", bad)
		}
	}
}

// TestCmdMergeErrors covers the CLI-level refusal paths.
func TestCmdMergeErrors(t *testing.T) {
	if err := cmdMerge(nil); err == nil {
		t.Fatal("merge with no files must error")
	}
	if err := cmdMerge([]string{filepath.Join(t.TempDir(), "missing.ndjson")}); err == nil {
		t.Fatal("merge of missing file must error")
	}
	p := filepath.Join(t.TempDir(), "rows.ndjson")
	if err := os.WriteFile(p, []byte(`{"loop":"a","machine":"m","model":"ideal","regs":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdMerge([]string{p}); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("headerless stream accepted: %v", err)
	}
}

// TestCmdCacheInspectAndGC drives `ncdrf cache` over a real artifact
// directory: inspect reports the group records, the damaged segment and
// a planted directory of the previous format version as stale, GC
// removes that directory and compacts the damaged segment's intact
// records into one segment, and the live entries keep serving (the warm
// rerun still produces the byte-identical stream).
func TestCmdCacheInspectAndGC(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-kernels-only", "-lats", "6", "-models", "unified", "-regs", "32", "-cache-dir", dir}
	first := capture(t, func() error { return cmdSweep(ctx0, testEng(), args) })

	// Plant damage: one corrupted record in the run's one segment, and a
	// stale version dir as the per-record format left it.
	vdir := filepath.Join(dir, fmt.Sprintf("v%d", store.FormatVersion))
	segs, err := filepath.Glob(filepath.Join(vdir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	staleDir := filepath.Join(dir, fmt.Sprintf("v%d", store.FormatVersion-1), "sched")
	if err := os.MkdirAll(staleDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staleDir, "old"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	inspect := capture(t, func() error { return cmdCache([]string{"-dir", dir}) })
	for _, want := range []string{"group", "stale version", "segments: 1, 1 damaged"} {
		if !strings.Contains(inspect, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, inspect)
		}
	}
	gcOut := capture(t, func() error { return cmdCache([]string{"-dir", dir, "-gc"}) })
	if !strings.Contains(gcOut, "1 stale-version, 1 damaged") {
		t.Fatalf("gc did not remove the planted files:\n%s", gcOut)
	}
	if after, _ := filepath.Glob(filepath.Join(vdir, "*.seg")); len(after) != 1 || after[0] == segs[0] {
		t.Fatalf("segments after gc %v; want one compacted segment in place of %s", after, segs[0])
	}
	if _, err := os.Stat(staleDir); !os.IsNotExist(err) {
		t.Fatalf("stale version dir survived gc: %v", err)
	}

	second := capture(t, func() error { return cmdSweep(ctx0, testEng(), args) })
	if second != first {
		t.Fatalf("warm rerun after gc differs:\nfirst:\n%s\nsecond:\n%s", first, second)
	}

	if err := cmdCache(nil); err == nil {
		t.Fatal("cache without -dir must error")
	}
	if err := cmdCache([]string{"-dir", filepath.Join(dir, "no-such")}); err == nil {
		t.Fatal("cache of missing dir must error")
	}
}

// TestCmdCacheGCModifiersRequireGC pins that -max-age/-dry-run without
// -gc are refused instead of silently inspecting.
func TestCmdCacheGCModifiersRequireGC(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-dir", dir, "-max-age", "24h"},
		{"-dir", dir, "-dry-run"},
	} {
		if err := cmdCache(args); err == nil || !strings.Contains(err.Error(), "require -gc") {
			t.Fatalf("cache %v accepted without -gc: %v", args, err)
		}
	}
}

// TestCmdSweepOutputAtomic pins the -o write discipline: an interrupted
// (cancelled) rerun must leave a previously complete output file
// untouched — the new stream only replaces it on success, and no temp
// litter survives the failure.
func TestCmdSweepOutputAtomic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "s.ndjson")
	if err := os.WriteFile(p, []byte("precious complete shard\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(ctx0)
	cancel()
	err := cmdSweep(ctx, testEng(), []string{"-kernels-only", "-shard", "1/2", "-o", p})
	if err == nil {
		t.Fatal("cancelled sweep must error")
	}
	if got := readFileT(t, p); got != "precious complete shard\n" {
		t.Fatalf("interrupted run clobbered the output file: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %d entries", len(entries))
	}
	// A successful rerun replaces the file with the real stream.
	if out := capture(t, func() error {
		return cmdSweep(ctx0, testEng(), []string{"-kernels-only", "-shard", "1/2", "-o", p})
	}); out != "" {
		t.Fatalf("unexpected stdout: %q", out)
	}
	if !strings.HasPrefix(readFileT(t, p), `{"ncdrf_shard":`) {
		t.Fatal("successful rerun did not install the new stream")
	}
}
