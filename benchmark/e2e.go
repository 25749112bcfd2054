package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one child run of the ncdrf binary, measured from outside:
// wall time from fork to wait4, CPU and peak RSS from its rusage.
type sample struct {
	wall, cpu float64 // seconds
	rssMiB    float64
	digest    string // of the stdout body; see body
	stdout    []byte
}

// childLimit bounds one child run. It lies far beyond the 10x-median
// check and only keeps a hung child from outliving the benchmark.
const childLimit = 60 * time.Second

// runChild runs the ncdrf binary with args at the given GOMAXPROCS. It
// returns only once the child has exited and been waited on.
func (b *bench) runChild(ctx context.Context, args []string, procs int) (sample, error) {
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := nowMono()
	err := cmd.Run()
	wall := nowMono().Sub(t0)
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = msg[len(msg)-400:]
		}
		return sample{}, fmt.Errorf("ncdrf %s: %v after %v: %s", strings.Join(args, " "), err, wall.Round(time.Millisecond), msg)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return sample{
		wall:   wall.Seconds(),
		cpu:    cpu.Seconds(),
		rssMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		digest: digest(body(stdout.Bytes())),
		stdout: stdout.Bytes(),
	}, nil
}

// plan sizes one run.
type plan struct {
	// corpora is how many seed-derived corpora the run cycles through.
	// Each is a different draw of the same workload shape, so the medians
	// average over inputs as well as over machine noise.
	corpora int
	// minRounds is the least number of rounds; a round runs every corpus
	// once at GOMAXPROCS=nproc and once at GOMAXPROCS=1. Rounds continue
	// until the measuring time is used up, the last one possibly partial.
	minRounds int
	seconds   float64
}

// maxCandidates bounds how many corpus seeds a run tries per corpus it
// needs.
const maxCandidates = 4

// genRepeats is how many times a run times `ncdrf gen` per corpus.
const genRepeats = 5

// selectCorpora picks the run's corpora. It tries the candidate seeds
// seed, seed+1e6, seed+2e6, ... in order — so --seed 1995 starts with
// loopgen's calibrated corpus, and no nearby --seed reaches the others —
// and keeps the first n on which the workload's uncached command
// succeeds; checkReference decides which failures skip a corpus. The kept
// runs' outputs are the corpora's reference outputs.
func (b *bench) selectCorpora(ctx context.Context, w workload, seed int64, n int, t *tally) ([]int64, []sample, error) {
	var seeds []int64
	var refs []sample
	for i := 0; len(seeds) < n && i < n*maxCandidates; i++ {
		cs := seed + int64(i)*1_000_000
		s, err := b.runChild(ctx, w.args(cs, ""), b.nproc)
		if checkReference(t, b.golden, strings.Join(w.args(cs, ""), " "), s, err) {
			fmt.Fprintf(os.Stderr, "skipping corpus seed %d: %v\n", cs, err)
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		seeds, refs = append(seeds, cs), append(refs, s)
	}
	if len(seeds) < n {
		return nil, nil, fmt.Errorf("%s: only %d of %d corpora run", w.name, len(seeds), n)
	}
	return seeds, refs, nil
}

// runE2E measures a workload's untraced CLI runs and returns the
// end-to-end metrics. Every child run and every output comparison is one
// operation in t.
func (b *bench) runE2E(ctx context.Context, w workload, p plan, seed int64, t *tally) (map[string]summary, error) {
	seeds, refs, err := b.selectCorpora(ctx, w, seed, p.corpora, t)
	if err != nil {
		return nil, err
	}
	compare := func(j int, what string, s sample) {
		checkSame(t, fmt.Sprintf("%s, corpus seed %d", what, seeds[j]), refs[j].digest, s.digest)
	}
	// run counts an untimed child run as one operation.
	run := func(what string, args []string) (sample, bool) {
		s, err := b.runChild(ctx, args, b.nproc)
		t.check(what, err == nil, fmt.Sprint(err))
		return s, err == nil
	}

	// Set-up, timed as setup_s. The store workload fills one cache
	// directory per corpus with a cold run; the others pay process start
	// plus corpus generation, which each of their runs pays too. That
	// lasts tens of milliseconds, so it is repeated to steady the median.
	setup := make([][]float64, len(seeds))
	cacheDirs := make([]string, len(seeds))
	defer func() {
		for _, d := range cacheDirs {
			if d != "" {
				os.RemoveAll(d)
			}
		}
	}()
	for j, cs := range seeds {
		if !w.store {
			for range genRepeats {
				s, ok := run("set-up", []string{"gen", "-n", strconv.Itoa(w.loops), "-seed", strconv.FormatInt(cs, 10)})
				if !ok {
					return nil, fmt.Errorf("%s: set-up failed", w.name)
				}
				setup[j] = append(setup[j], s.wall)
			}
			continue
		}
		cacheDirs[j] = filepath.Join(b.work, fmt.Sprintf("store-%d", j))
		if err := os.RemoveAll(cacheDirs[j]); err != nil {
			return nil, err
		}
		s, ok := run("set-up", w.args(cs, cacheDirs[j]))
		if !ok {
			return nil, fmt.Errorf("%s: set-up failed", w.name)
		}
		setup[j] = append(setup[j], s.wall)
		compare(j, "cold run", s)
	}

	// One untimed warm-up run, then rounds over the corpora until the
	// measuring time is used; the time is checked before each corpus so a
	// run ends close to it. The order of the two settings alternates
	// between rounds so a slow drift of the host favours neither.
	if s, ok := run("warm-up", w.args(seeds[0], cacheDirs[0])); ok {
		compare(0, "warm-up", s)
	}
	procs := [2]int{b.nproc, 1}
	var runs [2][][]sample // by setting, then corpus
	for k := range runs {
		runs[k] = make([][]sample, len(seeds))
	}
	start := nowMono()
rounds:
	for round := 0; ; round++ {
		for j, cs := range seeds {
			if round >= p.minRounds && nowMono().Sub(start).Seconds() >= p.seconds {
				break rounds
			}
			for i := range procs {
				k := (i + round) % 2
				s, err := b.runChild(ctx, w.args(cs, cacheDirs[j]), procs[k])
				if err != nil {
					t.check("timed run", false, err.Error())
					continue
				}
				s.stdout = nil // only its digest is compared
				runs[k][j] = append(runs[k][j], s)
				compare(j, fmt.Sprintf("GOMAXPROCS=%d", procs[k]), s)
			}
		}
	}

	// field gathers one measure of a setting's runs, by corpus.
	field := func(k int, f func(sample) float64) [][]float64 {
		out := make([][]float64, len(seeds))
		for j, ss := range runs[k] {
			for _, s := range ss {
				out[j] = append(out[j], f(s))
			}
		}
		return out
	}
	var wall [2][][]float64
	for k := range runs {
		wall[k] = field(k, func(s sample) float64 { return s.wall })
		if pooled(wall[k]).N == 0 {
			return nil, fmt.Errorf("%s: no successful timed runs at GOMAXPROCS=%d", w.name, procs[k])
		}
		// A timed run counts as failed unless it finished within 10x the
		// median of its setting on its corpus.
		for _, xs := range wall[k] {
			med := median(xs)
			for _, x := range xs {
				t.check("timed run", x <= 10*med,
					fmt.Sprintf("%.3fs at GOMAXPROCS=%d, median %.3fs", x, procs[k], med))
			}
		}
	}
	return map[string]summary{
		"setup_s":      pooled(setup),
		"wall_s":       pooled(wall[0]),
		"wall_1cpu_s":  pooled(wall[1]),
		"cpu_s":        pooled(field(0, func(s sample) float64 { return s.cpu })),
		"peak_rss_mib": pooled(field(0, func(s sample) float64 { return s.rssMiB })),
	}, nil
}
