package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildLint compiles the checker once per test binary into a temp dir
// and returns its path.
func buildLint(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "ncdrf-lint")
	if runtime.GOOS == "windows" {
		exe += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", exe, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/ncdrf-lint: %v\n%s", err, out)
	}
	return exe
}

// writeModule lays out a throwaway single-package module and returns
// its directory.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintsmoke\n\ngo 1.24\n",
		"a.go":   src,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestVettoolFlagsSeededViolation is the CLI form of CI's seeded-
// violation self-test: the driver must fail on a seeded violation and
// attribute the diagnostic to its analyzer.
func TestVettoolFlagsSeededViolation(t *testing.T) {
	exe := buildLint(t)
	_, stderr, code := standalone(t, exe, writeModule(t, `package a

import "time"

func Stamp() time.Time { return time.Now() }
`))
	if code != 1 {
		t.Fatalf("exit code = %d on a seeded time.Now violation, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "time.Now reads the wall clock") {
		t.Errorf("missing wallclock diagnostic in output:\n%s", stderr)
	}
	if !strings.Contains(stderr, "[wallclock]") {
		t.Errorf("diagnostic is not attributed to its analyzer:\n%s", stderr)
	}
}

func TestVettoolCleanPackage(t *testing.T) {
	exe := buildLint(t)
	_, stderr, code := standalone(t, exe, writeModule(t, `package a

func Add(a, b int) int { return a + b }
`))
	if code != 0 {
		t.Fatalf("exit code = %d on a clean package, want 0\nstderr:\n%s", code, stderr)
	}
}

func TestVettoolAllowDirective(t *testing.T) {
	exe := buildLint(t)
	_, stderr, code := standalone(t, exe, writeModule(t, `package a

import "time"

func Stamp() time.Time {
	//lint:allow wallclock -- smoke test
	return time.Now()
}
`))
	if code != 0 {
		t.Fatalf("exit code = %d on an allowlisted line, want 0\nstderr:\n%s", code, stderr)
	}
}

// writeTree lays out a throwaway module from a file map and returns
// its directory.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// standalone runs the checker's own driver (`ncdrf-lint [args] ./...`)
// in dir and returns stdout, stderr and the exit code.
func standalone(t *testing.T, exe, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(exe, append(args, "./...")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("ncdrf-lint did not run: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// factsModule is a two-package module in which the only way the outer
// package earns a diagnostic is through a fact exported by inner:
// inner.Spawn's own finding is allowlisted, so its SpawnsUnjoined fact
// must cross the package boundary for a.go's call site to be flagged.
func factsModule(t *testing.T) string {
	return writeTree(t, map[string]string{
		"go.mod": "module lintsmoke\n\ngo 1.24\n",
		"inner/inner.go": `package inner

// Spawn fires and forgets; joining is the caller's problem.
func Spawn() {
	//lint:allow goleak -- smoke test: the fact must still reach importers
	go func() {}()
}
`,
		"a.go": `package a

import "lintsmoke/inner"

func Use() {
	inner.Spawn()
}
`,
	})
}

func TestStandaloneCrossPackageFacts(t *testing.T) {
	exe := buildLint(t)
	_, stderr, code := standalone(t, exe, factsModule(t))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; inner's fact did not reach package a\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "call to Spawn spawns an unjoined goroutine") {
		t.Errorf("missing cross-package goleak diagnostic:\n%s", stderr)
	}
	if !strings.Contains(stderr, "[goleak]") {
		t.Errorf("diagnostic is not attributed to its analyzer:\n%s", stderr)
	}
}

// TestStandaloneJSON pins the -json schema: a flat array of objects
// with exactly the keys file/line/column/analyzer/message/suppressed,
// including suppressed findings (flagged), with only unsuppressed ones
// driving the exit status.
func TestStandaloneJSON(t *testing.T) {
	exe := buildLint(t)
	dir := writeModule(t, `package a

import "time"

func Stamp() time.Time { return time.Now() }

func Stamp2() time.Time {
	//lint:allow wallclock -- smoke test
	return time.Now()
}
`)
	stdout, stderr, code := standalone(t, exe, dir, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr)
	}
	var got []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Column     int    `json:"column"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields() // any new key is a schema change; repin deliberately
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("-json output does not match the pinned schema: %v\n%s", err, stdout)
	}
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (one live, one suppressed):\n%s", len(got), stdout)
	}
	for _, f := range got {
		if f.Analyzer != "wallclock" || !strings.HasSuffix(f.File, "a.go") || f.Line == 0 || f.Column == 0 {
			t.Errorf("malformed finding: %+v", f)
		}
		if !strings.Contains(f.Message, "time.Now reads the wall clock") {
			t.Errorf("unexpected message: %q", f.Message)
		}
	}
	if got[0].Suppressed || !got[1].Suppressed {
		t.Errorf("suppression status wrong: first=%v second=%v, want false/true", got[0].Suppressed, got[1].Suppressed)
	}
}

func TestStandaloneJSONClean(t *testing.T) {
	exe := buildLint(t)
	dir := writeModule(t, `package a

func Add(a, b int) int { return a + b }
`)
	stdout, stderr, code := standalone(t, exe, dir, "-json")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout)
	}
}

// TestAllowExpiry: a //lint:allow directive naming an analyzer that
// does not exist is itself a diagnostic.
func TestAllowExpiry(t *testing.T) {
	exe := buildLint(t)
	src := `package a

func Add(a, b int) int {
	//lint:allow nosuchcheck -- directive rotted after a rename
	return a + b
}
`
	t.Run("standalone", func(t *testing.T) {
		_, stderr, code := standalone(t, exe, writeModule(t, src))
		if code != 1 {
			t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr)
		}
		if !strings.Contains(stderr, `unknown analyzer "nosuchcheck"`) || !strings.Contains(stderr, "[allow]") {
			t.Errorf("missing allow-expiry diagnostic:\n%s", stderr)
		}
	})
}
