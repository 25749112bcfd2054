// Command ncdrf reproduces the tables and figures of "Non-Consistent Dual
// Register Files to Reduce Register Pressure" (Llosa, Valero, Ayguadé,
// HPCA 1995) and exposes the underlying pipeline (modulo scheduling,
// lifetime analysis, rotating register allocation, swapping, spilling)
// for individual loops.
//
// Usage:
//
//	ncdrf example                     worked example of section 4 (Tables 2-4)
//	ncdrf table1 [flags]              Table 1
//	ncdrf fig6 [flags]                Figure 6 (static CDFs, latency 3 and 6)
//	ncdrf fig7 [flags]                Figure 7 (dynamic CDFs)
//	ncdrf fig8 [flags]                Figure 8 (relative performance)
//	ncdrf fig9 [flags]                Figure 9 (memory traffic density)
//	ncdrf all [flags]                 every table and figure
//	ncdrf sweep [flags]               arbitrary evaluation grid, JSON output
//	ncdrf curve [flags]               register-sensitivity curves (-regs lo:hi[:step])
//	ncdrf merge s1 s2 ...             merge 'sweep -shard' outputs into one stream
//	ncdrf cache -dir <dir> [flags]    inspect/GC a -cache-dir artifact directory
//	ncdrf schedule -loop <name>       schedule one kernel and print it
//	ncdrf alloc -loop <name>          allocate one kernel under all models
//	ncdrf kernels                     list curated kernels
//	ncdrf gen -n <count> -seed <s>    emit the synthetic corpus (DDG text)
//	ncdrf dot -loop <name>            DOT dependence graph of a kernel
//	ncdrf regfile                     register-file area/access-time models
//	ncdrf verify [flags]              execute compiled loops on the register-file VM
//	ncdrf listing -loop <name>        kernel listing with allocated specifiers
//	ncdrf object -loop <name>         predicated kernel-only object code
//	ncdrf stats [flags]               corpus statistics
//	ncdrf clusters [flags]            1/2/4-cluster extension study
//
// Corpus flags (table1/fig6..9/all/sweep/curve/stats/clusters): -loops N
// -seed S -kernels-only
//
// Persistent cache (all/sweep/curve): -cache-dir DIR stores one record
// per (loop, machine) group on disk — its requirement row and its cells'
// metrics — so a rerun over the same corpus computes no cell.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"ncdrf/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One engine per process: every experiment command shares the same
	// stage caches and worker pool, and an interrupt cancels the sweep.
	// After the first interrupt the handler unregisters, so a second
	// Ctrl-C kills the process the default way instead of being
	// swallowed while in-flight work drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)
	eng := sweep.New(0)

	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "example":
		err = cmdExample(args)
	case "table1":
		err = cmdTable1(ctx, eng, args)
	case "fig6":
		err = cmdFigCDF(ctx, eng, args, false)
	case "fig7":
		err = cmdFigCDF(ctx, eng, args, true)
	case "fig8":
		err = cmdFigPerf(ctx, eng, args, true, false)
	case "fig9":
		err = cmdFigPerf(ctx, eng, args, false, true)
	case "all":
		err = cmdAll(ctx, eng, args)
	case "sweep":
		err = cmdSweep(ctx, eng, args)
	case "curve":
		err = cmdCurve(ctx, eng, args)
	case "merge":
		err = cmdMerge(args)
	case "cache":
		err = cmdCache(args)
	case "schedule":
		err = cmdSchedule(args)
	case "alloc":
		err = cmdAlloc(args)
	case "kernels":
		err = cmdKernels(args)
	case "gen":
		err = cmdGen(args)
	case "dot":
		err = cmdDot(args)
	case "regfile":
		err = cmdRegfile(args)
	case "verify":
		err = cmdVerify(args)
	case "listing":
		err = cmdListing(args)
	case "object":
		err = cmdObject(args)
	case "stats":
		err = cmdStats(args)
	case "clusters":
		err = cmdClusters(ctx, eng, args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ncdrf: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncdrf %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `ncdrf - Non-Consistent Dual Register Files (HPCA'95) reproduction

commands:
  example    worked example of section 4 (Tables 2, 3 and 4)
  table1     Table 1: loops allocatable without spilling per configuration
  fig6       Figure 6: static cumulative distribution of register needs
  fig7       Figure 7: dynamic (cycle-weighted) cumulative distribution
  fig8       Figure 8: performance with 32/64 registers
  fig9       Figure 9: density of memory traffic
  all        all of the above (-cache-dir makes reruns incremental)
  sweep      arbitrary corpus x latency x model x register-size grid,
             streamed as JSON lines in plan order (-lats, -models, -regs,
             -clusters, -cache-dir, -progress; -shard i/n -o file runs
             one slice of the grid for 'ncdrf merge')
  curve      register-sensitivity curves over a dense register axis
             (-regs lo:hi[:step]): per-model fit %, spill ops and
             performance relative to ideal vs. file size, one base
             schedule per (loop, machine) group (-csv, -chart, -ndjson,
             -shard, -from, -stats, -strict, -progress, -cache-dir)
  merge      splice 'sweep'/'curve' -shard output files back into the
             byte-identical unsharded stream
  cache      inspect or garbage-collect a -cache-dir artifact directory:
             entries per format version and stage ('group': one record per
             (loop, machine) group; older versions are stale)
             (-dir, -gc, -max-age, -dry-run)
  schedule   modulo-schedule one kernel (-loop name, -lat 3|6)
  alloc      register requirements of one kernel under every model
  kernels    list the curated kernel corpus
  gen        emit the synthetic corpus as DDG text (-n, -seed)
  dot        DOT dependence graph of a kernel (-loop name)
  regfile    register-file area and access-time model comparison
  verify     execute compiled loops on simulated rotating register files
             and check them bit-for-bit against a sequential reference
  listing    assembly-like kernel listing with allocated register specifiers
  object     predicated kernel-only code (stage predicates, encoded rotating
             specifiers, brtop), as the Cydra-5-style hardware executes it
  stats      corpus statistics, incl. the section 3.3 single-use fraction
  clusters   extension study: 1/2/4-cluster machines
`)
}

// corpusFlags attaches the shared corpus options to a FlagSet.
type corpusOpts struct {
	loops       *int
	seed        *int64
	kernelsOnly *bool
}

func corpusFlags(fs *flag.FlagSet) corpusOpts {
	return corpusOpts{
		loops:       fs.Int("loops", 795, "synthetic corpus size"),
		seed:        fs.Int64("seed", 1995, "synthetic corpus seed"),
		kernelsOnly: fs.Bool("kernels-only", false, "use only the curated kernels"),
	}
}

// checkLoopCount rejects a synthetic corpus size below one: the
// generator would silently substitute its whole default parameter set.
func checkLoopCount(flagName string, n int) error {
	if n < 1 {
		return fmt.Errorf("%s: loop count must be >= 1, got %d (use -kernels-only for no synthetic loops)", flagName, n)
	}
	return nil
}

// checkLatency rejects a floating-point latency the machine model
// cannot be built with.
func checkLatency(flagName string, lat int) error {
	if lat < 1 {
		return fmt.Errorf("%s: latency must be >= 1, got %d", flagName, lat)
	}
	return nil
}

// checkRegSize rejects a negative register-file size (0 = unlimited).
func checkRegSize(flagName string, r int) error {
	if r < 0 {
		return fmt.Errorf("%s: sizes must be >= 0 (0 = unlimited), got %d", flagName, r)
	}
	return nil
}
