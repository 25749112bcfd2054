package main

import (
	"flag"
	"fmt"
	"os"

	"ncdrf/internal/report"
	"ncdrf/internal/store"
)

// cmdCache inspects and garbage-collects a persistent artifact
// directory (the -cache-dir of `ncdrf all|sweep|curve`): per-version,
// per-stage entry counts and sizes, damaged-file detection, and — with
// -gc — removal of everything the current binary can never serve
// (stale format versions, damaged files, leftover temp files, and
// optionally entries older than -max-age), without disturbing live
// entries.
func cmdCache(args []string) error {
	fs := flag.NewFlagSet("cache", flag.ExitOnError)
	dir := fs.String("dir", "", "artifact directory (as given to -cache-dir)")
	gc := fs.Bool("gc", false, "remove stale-version, damaged and leftover-temp files (and expired ones with -max-age)")
	maxAge := fs.Duration("max-age", 0, "with -gc, also remove intact artifacts older than this (e.g. 720h; 0 keeps all ages)")
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

	type agg struct {
		entries, damaged int
		bytes            int64
	}
	perStage := map[[2]string]*agg{}
	var order [][2]string
	for _, e := range sum.Entries {
		k := [2]string{fmt.Sprintf("v%d", e.Version), e.Stage}
		a := perStage[k]
		if a == nil {
			a = &agg{}
			perStage[k] = a
			order = append(order, k)
		}
		a.entries++
		a.bytes += e.Size
		if e.Damaged {
			a.damaged++
		}
	}
	fmt.Printf("artifact store %s (current format v%d)\n\n", *dir, store.FormatVersion)
	tb := &report.Table{Headers: []string{"version", "stage", "entries", "bytes", "damaged"}}
	for _, k := range order {
		a := perStage[k]
		note := fmt.Sprintf("%d", a.damaged)
		if k[0] != fmt.Sprintf("v%d", store.FormatVersion) {
			note = "stale version"
		}
		tb.Add(k[0], k[1], fmt.Sprintf("%d", a.entries), fmt.Sprintf("%d", a.bytes), note)
	}
	if len(order) == 0 {
		fmt.Println("no artifacts")
	} else if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	if sum.Temps > 0 {
		fmt.Printf("leftover temp files: %d (%d bytes)\n", sum.Temps, sum.TempBytes)
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
	fmt.Printf("\ngc: %s %d files (%d bytes): %d stale-version, %d damaged, %d expired, %d temps; kept %d live entries\n",
		verb, res.Removed(), res.Bytes, res.StaleVersions, res.Damaged, res.Expired, res.Temps, res.Kept)
	return nil
}
