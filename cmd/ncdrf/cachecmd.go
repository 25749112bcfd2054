package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"ncdrf/internal/report"
	"ncdrf/internal/store"
)

// cmdCache inspects and garbage-collects a persistent artifact
// directory (the -cache-dir of `ncdrf all|sweep|curve`): per-version,
// per-stage live entry counts and sizes, the segment files with their
// damage and superseded frames, and — with -gc — removal of everything
// the current binary can never serve (stale format versions, damaged
// segments, leftover temp files, and optionally segments older than
// -max-age), then compaction of the live entries into one segment.
func cmdCache(args []string) error {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	dir := fs.String("dir", "", "artifact directory (as given to -cache-dir)")
	gc := fs.Bool("gc", false, "remove stale-version, damaged and leftover-temp files (and expired segments with -max-age), then compact the live entries into one segment")
	maxAge := fs.Duration("max-age", 0, "with -gc, also remove segments older than this (e.g. 720h; 0 keeps all ages)")
	dryRun := fs.Bool("dry-run", false, "with -gc, report what would be removed without removing anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required (the directory previously passed to -cache-dir)")
	}
	if *maxAge < 0 {
		return fmt.Errorf("-max-age: must be >= 0, got %v", *maxAge)
	}
	// Refuse GC modifiers without -gc: silently inspecting would let an
	// operator believe the pruning they asked for actually ran.
	if !*gc && (*maxAge > 0 || *dryRun) {
		return fmt.Errorf("-max-age and -dry-run require -gc")
	}
	sum, err := store.Scan(*dir)
	if err != nil {
		return err
	}

	fmt.Printf("artifact store %s (current format v%d)\n\n", *dir, store.FormatVersion)
	tb := &report.Table{Headers: []string{"version", "stage", "entries", "bytes", "note"}}
	for i := 0; i < len(sum.Entries); { // sorted: one row per (version, stage) run
		e, n, size := sum.Entries[i], 0, int64(0)
		for ; i < len(sum.Entries) && sum.Entries[i].Version == e.Version && sum.Entries[i].Stage == e.Stage; i++ {
			n, size = n+1, size+sum.Entries[i].Size
		}
		note := "live"
		if e.Version != store.FormatVersion {
			note = "stale version"
		}
		tb.Add(fmt.Sprintf("v%d", e.Version), cmp.Or(e.Stage, "-"), fmt.Sprint(n), fmt.Sprint(size), note)
	}
	if len(sum.Entries) == 0 {
		fmt.Println("no artifacts")
	} else if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("segments: %d, %d damaged, %d superseded frames\n", sum.Segments, len(sum.Damaged), sum.Superseded)
	if sum.Temps > 0 {
		fmt.Printf("leftover temp files: %d\n", sum.Temps)
	}
	if sum.Foreign > 0 {
		fmt.Printf("foreign entries (not touched by -gc): %d\n", sum.Foreign)
	}

	if !*gc {
		return nil
	}
	res, err := sum.GC(store.GCOptions{MaxAge: *maxAge, DryRun: *dryRun})
	if err != nil {
		return err
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	fmt.Printf("\ngc: %s %d files (%d bytes): %d stale-version, %d damaged, %d expired, %d compacted, %d temps; kept %d live entries\n",
		verb, res.Removed(), res.Bytes, res.StaleVersions, res.Damaged, res.Expired, res.Compacted, res.Temps, res.Kept)
	return nil
}
