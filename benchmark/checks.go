package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// tally counts operations — timed runs and checks — and the ones that
// failed; it becomes the result's attempted/failed pair.
type tally struct {
	attempted, failed int
	failures          []string
}

// check records one operation; a failure keeps its detail for the
// report.
func (t *tally) check(name string, ok bool, detail string) {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, name+": "+detail)
	}
}

// body strips the `stage ` trailer lines from a command's stdout: they
// carry cache counters, which legitimately differ between a cold run, a
// warm rerun and an uncached run of the same corpus.
func body(stdout []byte) []byte {
	var out []byte
	for len(stdout) > 0 {
		line := stdout
		if i := bytes.IndexByte(stdout, '\n'); i >= 0 {
			line = stdout[:i+1]
		}
		stdout = stdout[len(line):]
		if !bytes.HasPrefix(line, []byte("stage ")) {
			out = append(out, line...)
		}
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkSame counts one output comparison: a rerun, another GOMAXPROCS
// setting, or a store-served run must print exactly the reference body.
func checkSame(t *tally, name string, want, got string) {
	t.check(name, want == got, fmt.Sprintf("output digest %.12s, want %.12s", got, want))
}

//go:embed testdata/golden.json
var goldenFS embed.FS

// loadGolden reads the committed output digests, keyed by the command
// line (minus the binary) that produced them.
func loadGolden() (map[string]string, error) {
	data, err := goldenFS.ReadFile("testdata/golden.json")
	if err != nil {
		return nil, err
	}
	var g map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// checkGolden counts one check when golden pins the command's output;
// commands without a committed digest (other seeds, other sizes) are not
// checked.
func checkGolden(t *tally, golden map[string]string, command, got string) {
	want, ok := golden[command]
	if !ok {
		return
	}
	t.check("golden "+command, want == got, fmt.Sprintf("output digest %.12s, committed %.12s", got, want))
}

// checkReference counts a corpus's reference run: one operation, plus the
// golden check when golden pins the command. `ncdrf all` exits non-zero
// when a loop does not converge at the Figure 8 budgets, which a few
// percent of random corpora do; such a corpus is not an input the
// workload can run, so checkReference reports skip and counts nothing.
// A command golden pins is known to converge, so its failure is never
// skipped.
func checkReference(t *tally, golden map[string]string, command string, s sample, err error) (skip bool) {
	_, pinned := golden[command]
	if err != nil && !pinned && strings.Contains(err.Error(), "did not converge") {
		return true
	}
	t.check("reference run "+command, err == nil, fmt.Sprint(err))
	if err == nil {
		checkGolden(t, golden, command, s.digest)
	}
	return false
}

// checkRows counts one check: the traced replay's rows, in plan order,
// must equal the command's -ndjson stream line for line.
func checkRows(t *tally, stream []byte, rows [][]byte) {
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) != len(rows) {
		t.check("replayed rows", false, fmt.Sprintf("%d replayed rows, stream has %d", len(rows), len(lines)))
		return
	}
	for i := range rows {
		if !bytes.Equal(rows[i], lines[i]) {
			t.check("replayed rows", false, fmt.Sprintf("row %d: replay %q, stream %q", i, bytes.TrimSpace(rows[i]), bytes.TrimSpace(lines[i])))
			return
		}
	}
	t.check("replayed rows", true, "")
}
