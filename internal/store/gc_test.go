package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildDirtyStore populates dir with: two live artifacts (one of them
// written twice) in an intact segment, a segment holding one intact and
// one damaged frame, one stale-version file, one leftover temp file and
// one foreign file.
func buildDirtyStore(t *testing.T, dir string) {
	t.Helper()
	s := openDir(t, dir)
	for _, k := range []string{"live-a", "live-b", "live-a"} {
		if err := s.Put("sched", k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	d := openDir(t, dir)
	for _, k := range []string{"saved", "broken"} {
		if err := d.Put("eval", k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	damaged := segments(t, d)[1]
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}
	staleDir := filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion-1), "sched")
	if err := os.MkdirAll(staleDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(staleDir, "old"), []byte("from another format"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), ".tmp-1-dead"+segExt), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanEnumeratesEverything(t *testing.T) {
	dir := t.TempDir()
	buildDirtyStore(t, dir)
	sum, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	var live, stale int
	for _, e := range sum.Entries {
		if e.Size <= 0 || e.ModTime.IsZero() {
			t.Fatalf("degenerate entry: %+v", e)
		}
		if e.Version == FormatVersion {
			live++
		} else {
			stale++
		}
	}
	if live != 3 || stale != 1 {
		t.Fatalf("scanned %d live and %d stale entries, want 3 and 1: %+v", live, stale, sum.Entries)
	}
	if sum.Segments != 2 || len(sum.Damaged) != 1 || sum.Superseded != 1 {
		t.Fatalf("%d segments, damaged %v, %d superseded frames; want 2, one, 1", sum.Segments, sum.Damaged, sum.Superseded)
	}
	if sum.Temps != 1 || sum.Foreign != 1 {
		t.Fatalf("temps = %d, foreign = %d, want 1, 1", sum.Temps, sum.Foreign)
	}
	// A missing directory is an error (a mistyped path must surface),
	// unlike the store's usual fault-tolerant reads.
	if _, err := Scan(filepath.Join(dir, "no-such")); err == nil {
		t.Fatal("scan of missing dir must error")
	}
}

func TestGCRemovesDeadKeepsLive(t *testing.T) {
	dir := t.TempDir()
	buildDirtyStore(t, dir)
	sum, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldest := time.Now()
	for _, e := range sum.Entries {
		if e.ModTime.Before(oldest) {
			oldest = e.ModTime
		}
	}

	// Dry run first: counts but does not touch the directory.
	res, err := sum.GC(GCOptions{DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleVersions != 1 || res.Damaged != 1 || res.Compacted != 1 || res.Temps != 1 ||
		res.Expired != 0 || res.Kept != 3 {
		t.Fatalf("dry-run result wrong: %+v", res)
	}
	if again, _ := Scan(dir); len(again.Entries) != len(sum.Entries) || again.Segments != 2 || again.Temps != sum.Temps {
		t.Fatal("dry run modified the directory")
	}

	res, err = sum.GC(GCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed() != 4 || res.Kept != 3 || res.Bytes <= 0 {
		t.Fatalf("gc result wrong: %+v", res)
	}
	after, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Entries) != 3 || after.Temps != 0 || after.Segments != 1 || after.Superseded != 0 || len(after.Damaged) != 0 {
		t.Fatalf("gc left %+v", after)
	}
	// The compacted segment carries its oldest input's age.
	for _, e := range after.Entries {
		if !e.ModTime.Equal(oldest) {
			t.Fatalf("compacted segment modified at %v, want %v", e.ModTime, oldest)
		}
	}
	// A second GC finds nothing to do.
	if res, err := after.GC(GCOptions{}); err != nil || res.Removed() != 0 || res.Kept != 3 {
		t.Fatalf("gc of a compacted store: %+v, %v", res, err)
	}
	// The emptied stale version directory is gone; the foreign file is
	// untouched; the live artifacts, the damaged segment's intact one
	// included, serve a fresh store without a fault.
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion-1))); !os.IsNotExist(err) {
		t.Fatalf("stale version dir survived: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatalf("foreign file touched: %v", err)
	}
	r := openDir(t, dir)
	for _, k := range [][2]string{{"sched", "live-a"}, {"sched", "live-b"}, {"eval", "saved"}} {
		if got, ok := r.Get(k[0], k[1]); !ok || string(got) != "payload of "+k[1] {
			t.Fatalf("live artifact %s lost: %q %v", k, got, ok)
		}
	}
	if st := r.Stats(); st.Faults != 0 {
		t.Fatalf("compacted store faults: %+v", st)
	}
}

func TestGCMaxAgeExpiresIntactEntries(t *testing.T) {
	dir := t.TempDir()
	old := openDir(t, dir)
	if err := old.Put("sched", "old", []byte("old")); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(onlySegment(t, old), past, past); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"new", "newer"} {
		if err := openDir(t, dir).Put("sched", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sum.GC(GCOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 1 || res.Compacted != 2 || res.Kept != 2 {
		t.Fatalf("max-age result wrong: %+v", res)
	}
	s := openDir(t, dir)
	if _, ok := s.Get("sched", "old"); ok {
		t.Fatal("expired artifact survived")
	}
	for _, k := range []string{"new", "newer"} {
		if _, ok := s.Get("sched", k); !ok {
			t.Fatalf("fresh artifact %s expired", k)
		}
	}
}
