package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ncdrf/internal/core"
	"ncdrf/internal/experiment"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sweep"
)

// gridFlags bundles the flags the sweep and curve commands share: the
// grid axes (-lats, -models, -clusters) and the run's output shape
// (-stats, -shard, -o, -progress). The register axis stays per command
// because its spec differs (comma list vs. dense range).
type gridFlags struct {
	lats     *string
	models   *string
	clusters *int
	stats    *bool
	shard    *string
	out      *string
	progress *bool
}

func addGridFlags(fs *flag.FlagSet, defaultModels string) gridFlags {
	return gridFlags{
		// Latencies are whole cycles: machine presets take integer latencies,
		// and parseIntList enforces it (pinned by TestCmdSweepLatsAreIntegers).
		lats:     fs.String("lats", "3,6", "comma-separated latencies of the floating-point units, in whole cycles"),
		models:   fs.String("models", defaultModels, "comma-separated models"),
		clusters: fs.Int("clusters", 2, "clusters per machine (2 = the paper's evaluation machine)"),
		stats:    fs.Bool("stats", false, "append the per-stage cache counters (row streams: a JSON object on stdout, even with -o; tables: a trailer)"),
		shard:    fs.String("shard", "", "run only shard I of N of the grid, as I/N (e.g. 2/3); emits a headered row stream for 'ncdrf merge'"),
		out:      fs.String("o", "", "write the output to this file instead of stdout"),
		progress: fs.Bool("progress", false, "report done/total units, per-stage hit rates and elapsed time on stderr"),
	}
}

// withOut hands fn the command's output: the -o file, written
// atomically, or stdout.
func (f gridFlags) withOut(fn func(w io.Writer) error) error {
	if *f.out != "" {
		return writeFileAtomic(*f.out, fn)
	}
	return fn(os.Stdout)
}

// observe runs body under the -cpuprofile/-memprofile and -progress
// instrumentation; total is the unit count the progress reporter
// counts down.
func (f gridFlags) observe(eng *sweep.Engine, pf profileFlags, total int, body func(prog *progress) error) error {
	stopProf, err := pf.start()
	if err != nil {
		return err
	}
	prog := startProgress(*f.progress, os.Stderr, eng, total)
	defer prog.close()
	err = body(prog)
	if perr := stopProf(); err == nil {
		err = perr
	}
	return err
}

// stream writes the executor's rows to the command's output as NDJSON,
// then the -stats object. The stats go to stdout even with -o: a shard
// file must hold exactly a header plus rows, or merge would reject it.
func (f gridFlags) stream(ctx context.Context, eng *sweep.Engine, run executor, header *sweep.ShardHeader, prog *progress) error {
	err := f.withOut(func(w io.Writer) error { return streamRows(ctx, run, header, w, prog) })
	if err != nil || !*f.stats {
		return err
	}
	return writeStatsJSON(eng, os.Stdout)
}

// executor runs one grid — densely or by frontier search — delivering
// its rows to emit in plan order and calling done once per computed
// unit. It is the one seam between the commands' output paths and the
// engine's executors.
type executor func(ctx context.Context, emit func(sweep.Result), done func()) error

// denseExecutor evaluates every unit of the (possibly sharded) plan.
func denseExecutor(eng *sweep.Engine, grid sweep.Grid, units []sweep.Unit) executor {
	return func(ctx context.Context, emit func(sweep.Result), done func()) error {
		return eng.SweepUnitsObserved(ctx, grid, units, emit, done)
	}
}

// buildGrid validates the axis flags and assembles the sweep grid; regs
// is pre-parsed by the caller. Every empty or out-of-range axis errors
// out here — a silently empty grid is the failure mode Grid.Validate
// exists for, and the CLI names the flag on top of the axis.
func (f gridFlags) buildGrid(o corpusOpts, regs []int) (sweep.Grid, error) {
	var grid sweep.Grid
	latList, err := parseIntList(*f.lats)
	if err != nil {
		return grid, fmt.Errorf("-lats: %w", err)
	}
	if len(latList) == 0 {
		return grid, fmt.Errorf("-lats: no latencies given")
	}
	for _, lat := range latList {
		if lat < 1 {
			return grid, fmt.Errorf("-lats: latency must be >= 1, got %d", lat)
		}
	}
	if *f.clusters < 1 {
		return grid, fmt.Errorf("-clusters: must be >= 1, got %d", *f.clusters)
	}
	var modelList []core.Model
	for _, name := range splitList(*f.models) {
		m, err := core.ParseModel(name)
		if err != nil {
			return grid, err
		}
		modelList = append(modelList, m)
	}
	if len(modelList) == 0 {
		return grid, fmt.Errorf("-models: no models given")
	}
	var machines []*machine.Config
	for _, lat := range latList {
		machines = append(machines, experiment.EvalN(*f.clusters, lat))
	}
	grid = sweep.Grid{
		Corpus:   buildCorpus(o),
		Machines: machines,
		Models:   modelList,
		Regs:     regs,
	}
	return grid, grid.Validate()
}

// planShard expands the grid once and applies an optional -shard spec:
// the full plan feeds both the shard slice and the header digest, so a
// large grid is never re-expanded per consumer (Plan, PlanDigest and
// Shard used to each expand it again).
func planShard(grid sweep.Grid, shardSpec string) (units []sweep.Unit, header *sweep.ShardHeader, err error) {
	plan := grid.Plan()
	if shardSpec == "" {
		return plan, nil, nil
	}
	i, n, err := parseShardSpec(shardSpec)
	if err != nil {
		return nil, nil, fmt.Errorf("-shard: %w", err)
	}
	units, err = sweep.ShardOf(plan, i, n)
	if err != nil {
		return nil, nil, fmt.Errorf("-shard: %w", err)
	}
	header = &sweep.ShardHeader{
		Shard: i, Of: n, Units: len(units),
		Grid: grid.PlanDigestOf(plan), Format: sweep.ShardFormatVersion,
	}
	return units, header, nil
}

// cmdSweep runs an arbitrary (corpus x latency x model x register-size)
// grid on the sweep engine and streams one JSON object per work unit in
// plan order, making the tool usable for workloads beyond the paper's
// fixed figures (e.g. `-regs 8,16,24,...,128 -models swapped` for a
// register sensitivity curve, or `-clusters 4` for a wider machine).
// With -shard i/n it runs one contiguous slice of the grid and prefixes
// the stream with a shard header, so n processes — ideally sharing one
// -cache-dir — can split the grid and `ncdrf merge` can reassemble the
// byte-identical unsharded stream.
func cmdSweep(ctx context.Context, eng *sweep.Engine, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	o := corpusFlags(fs)
	gf := addGridFlags(fs, "ideal,unified,partitioned,swapped")
	regs := fs.String("regs", "32,64", "comma-separated register-file sizes (0 = unlimited)")
	pf := addProfileFlags(fs)
	cacheDir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := attachCacheDir(eng, *cacheDir); err != nil {
		return err
	}
	regList, err := parseIntList(*regs)
	if err != nil {
		return fmt.Errorf("-regs: %w", err)
	}
	if len(regList) == 0 {
		return fmt.Errorf("-regs: no sizes given (use 0 for an unlimited file)")
	}
	for _, r := range regList {
		if r < 0 {
			return fmt.Errorf("-regs: sizes must be >= 0 (0 = unlimited), got %d", r)
		}
	}
	grid, err := gf.buildGrid(o, regList)
	if err != nil {
		return err
	}
	units, header, err := planShard(grid, *gf.shard)
	if err != nil {
		return err
	}
	return gf.observe(eng, pf, len(units), func(prog *progress) error {
		return gf.stream(ctx, eng, denseExecutor(eng, grid, units), header, prog)
	})
}

// writeFileAtomic streams fn's output to a temp file next to path and
// renames it into place only when fn succeeds — same discipline as the
// artifact store's Put — so an interrupted or failed rerun never
// truncates a previously complete output file.
func writeFileAtomic(path string, fn func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = fn(f)
	if err == nil {
		// CreateTemp's private 0600 would make the shard file unreadable
		// to the account collecting shards centrally; match what a shell
		// redirect would have produced (0644 modulo umask is close enough
		// and never widens beyond it in practice).
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// parseShardSpec parses the I/N form of -shard.
func parseShardSpec(s string) (i, n int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("want I/N (e.g. 2/3), got %q", s)
	}
	if i, err = strconv.Atoi(s[:slash]); err != nil {
		return 0, 0, fmt.Errorf("bad shard index %q", s[:slash])
	}
	if n, err = strconv.Atoi(s[slash+1:]); err != nil {
		return 0, 0, fmt.Errorf("bad shard count %q", s[slash+1:])
	}
	return i, n, nil
}

// streamRows writes the executor's rows as JSON lines — preceded by the
// shard header when sharded — in plan order. A dead output (e.g. a
// closed pipe) cancels the run instead of burning CPU on results
// nobody will see.
func streamRows(ctx context.Context, run executor, header *sweep.ShardHeader, w io.Writer, prog *progress) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if header != nil {
		if err := sweep.WriteShardHeader(w, *header); err != nil {
			return fmt.Errorf("writing shard header: %w", err)
		}
	}
	var encErr error // only written under the executor's serialized emit
	err := run(ctx, func(r sweep.Result) {
		if encErr != nil {
			return
		}
		// The pooled row encoder (internal/pipeline) produces the same
		// bytes json.Encoder would, without a fresh encoder per row.
		if e := pipeline.EncodeRow(w, r); e != nil {
			encErr = e
			cancel()
			return
		}
		prog.incEmitted()
	}, prog.incDone)
	if encErr != nil {
		return fmt.Errorf("writing results: %w", encErr)
	}
	return err
}

// writeStatsJSON emits the -stats object: the legacy cache_* keys
// describe the schedule stage; the stage_* keys add the full per-stage
// picture (computed vs memory vs disk tier), the rows_* keys the row
// provenance (computed vs dominance-implied), and the entries_* keys
// the retained entry counts.
func writeStatsJSON(eng *sweep.Engine, w io.Writer) error {
	st := eng.StageStats()
	lens := eng.Cache().Lens()
	obj := map[string]uint64{
		"cache_requests": st.Schedule.Requests(),
		"cache_hits":     st.Schedule.Hits,
		"cache_misses":   st.Schedule.Misses,
	}
	// An ordered slice, not a map: the stage keys are built (and, were
	// obj ever streamed directly, emitted) in one fixed order.
	stages := []struct {
		name string
		cs   sweep.CacheStats
	}{{"schedule", st.Schedule}, {"base", st.Base}, {"eval", st.Eval}}
	for _, s := range stages {
		obj["stage_"+s.name+"_requests"] = s.cs.Requests()
		obj["stage_"+s.name+"_computed"] = s.cs.Misses
		obj["stage_"+s.name+"_memory_hits"] = s.cs.Hits
		obj["stage_"+s.name+"_disk_hits"] = s.cs.DiskHits
	}
	obj["rows_computed"] = st.RowsComputed
	obj["rows_implied"] = st.RowsImplied
	obj["entries_schedule"] = uint64(lens.Schedule)
	obj["entries_base"] = uint64(lens.Base)
	obj["entries_eval"] = uint64(lens.Eval)
	return json.NewEncoder(w).Encode(obj)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
