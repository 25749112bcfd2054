package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// segments returns the segment files of s's version directory.
func segments(t *testing.T, s *Store) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(s.Dir(), "[0-9]*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// onlySegment returns the one segment file of s's version directory.
func onlySegment(t *testing.T, s *Store) string {
	t.Helper()
	segs := segments(t, s)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1: %v", len(segs), segs)
	}
	return segs[0]
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	payload := []byte("machine eval-L3\nloop daxpy 100\n")
	if err := s.Put("sched", "00ff", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("sched", "00ff")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: %q %v", got, ok)
	}
	// Stage namespaces are separate.
	if _, ok := s.Get("eval", "00ff"); ok {
		t.Fatal("artifact leaked across stages")
	}
	// Overwrite wins.
	if err := s.Put("sched", "00ff", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("sched", "00ff"); !ok || string(got) != "v2" {
		t.Fatalf("overwrite lost: %q %v", got, ok)
	}
	st := s.Stats()
	if st.Writes != 2 || st.Hits != 2 || st.Misses != 1 || st.Faults != 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// Empty payloads are legal artifacts (none exist today, but the
	// frame must not confuse empty with missing).
	if err := s.Put("sched", "empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("sched", "empty"); !ok || len(got) != 0 {
		t.Fatalf("empty payload mishandled: %q %v", got, ok)
	}
	// A later process reads the last frame of each key from the one
	// segment this store wrote.
	onlySegment(t, s)
	r := openDir(t, dir)
	if got, ok := r.Get("sched", "00ff"); !ok || string(got) != "v2" {
		t.Fatalf("reopened store serves %q %v", got, ok)
	}
	if got, ok := r.Get("sched", "empty"); !ok || len(got) != 0 {
		t.Fatalf("reopened store mishandles the empty payload: %q %v", got, ok)
	}
	// A payload appended to cannot overwrite the segment bytes after it.
	got, _ = r.Get("sched", "00ff")
	_ = append(got, 'x')
	if got, ok := r.Get("sched", "empty"); !ok || len(got) != 0 {
		t.Fatalf("an append to one payload reached the next frame: %q %v", got, ok)
	}
	// Oversized frames are refused.
	if err := s.Put(strings.Repeat("s", 256), "k", nil); err == nil {
		t.Fatal("a 256-byte stage name was framed")
	}
}

// TestGetReadsBackOwnWrites: a Put's frame is indexed by its place in
// the store's segment, not kept in memory, and a Get in the same
// process reads it back verified. A byte flipped in the written frame
// reads as a miss with one fault, never as a payload; its neighbours
// still serve, and a rewrite serves again.
func TestGetReadsBackOwnWrites(t *testing.T) {
	s := openDir(t, t.TempDir())
	payloads := map[string][]byte{}
	keys := []string{"first", "victim", "last"}
	for i, key := range keys {
		payloads[key] = bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		if err := s.Put("group", key, payloads[key]); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		if got, ok := s.Get("group", key); !ok || !bytes.Equal(got, payloads[key]) {
			t.Fatalf("Get(%s) after Put = %q, %v", key, got, ok)
		}
		if sl := s.index[entry{"group", key}]; sl.frame != nil {
			t.Fatalf("the index keeps the %d-byte frame of written key %s in memory", len(sl.frame), key)
		}
	}

	seg := onlySegment(t, s)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off, n := frameAt(t, data, 1)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{data[off+n-frameSum-5] ^ 0x40}, int64(off+n-frameSum-5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if got, ok := s.Get("group", "victim"); ok {
		t.Fatalf("a damaged own frame served %q", got)
	}
	if st := s.Stats(); st.Faults != before.Faults+1 || st.Misses != before.Misses+1 {
		t.Fatalf("damaged own frame: stats %+v after %+v, want one more fault and one more miss", st, before)
	}
	for _, key := range []string{"first", "last"} {
		if got, ok := s.Get("group", key); !ok || !bytes.Equal(got, payloads[key]) {
			t.Fatalf("neighbour %s of the damaged frame = %q, %v", key, got, ok)
		}
	}
	if _, ok := s.Get("group", "victim"); ok {
		t.Fatal("the damaged frame served on a second Get")
	}
	if err := s.Put("group", "victim", payloads["victim"]); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("group", "victim"); !ok || !bytes.Equal(got, payloads["victim"]) {
		t.Fatalf("rewrite of the damaged key = %q, %v", got, ok)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir must error")
	}
}

func TestVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	if err := s.Put("sched", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A future format version must not see this version's artifacts:
	// its version directory is disjoint by construction.
	future := filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion+1))
	if _, err := os.Stat(future); !os.IsNotExist(err) {
		t.Fatalf("future version dir unexpectedly exists: %v", err)
	}
	if !strings.HasSuffix(s.Dir(), fmt.Sprintf("v%d", FormatVersion)) {
		t.Fatalf("store rooted at %q, want a v%d directory", s.Dir(), FormatVersion)
	}
}

// TestOpenEmptyDirCreatesNothing: a run that computes nothing leaves no
// file behind, and a warm rerun that only reads creates none.
func TestOpenEmptyDirCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	if _, ok := s.Get("group", "k"); ok {
		t.Fatal("empty store served an artifact")
	}
	if segs := segments(t, s); len(segs) != 0 {
		t.Fatalf("a store that wrote nothing created %v", segs)
	}
	if err := s.Put("group", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r := openDir(t, dir)
	if _, ok := r.Get("group", "k"); !ok {
		t.Fatal("artifact lost")
	}
	if segs := segments(t, r); len(segs) != 1 {
		t.Fatalf("a rerun that only read left %d segments, want 1", len(segs))
	}
}

// frameAt returns the offset and length of the i-th frame of data.
func frameAt(t *testing.T, data []byte, i int) (int, int) {
	t.Helper()
	off := 0
	for ; ; i-- {
		n, ok := nextFrame(data[off:])
		if n == 0 || !ok {
			t.Fatalf("no verified frame %d", i)
		}
		if i == 0 {
			return off, n
		}
		off += n
	}
}

// TestDamageReadsAsMiss covers the recovery contract. A frame damaged
// in its stage, key, payload or checksum reads as a miss with one fault,
// never as a payload, and its neighbours still serve. A segment cut
// short, emptied, holding no frame, or moved to another version's
// directory reads as a miss without a fault. Either way a rewrite serves
// again, and the next run does not fault.
func TestDamageReadsAsMiss(t *testing.T) {
	payload := []byte("some artifact payload, long enough to damage meaningfully\n")
	flip := func(at func(frameLen int) int) func(string, []byte) error {
		return func(seg string, data []byte) error {
			off, n := frameAt(t, data, 1)
			data[off+at(n)] ^= 0x40
			return os.WriteFile(seg, data, 0o644)
		}
	}
	for name, c := range map[string]struct {
		hurt   func(seg string, data []byte) error
		faults uint64
	}{
		"stage-mismatch":     {flip(func(int) int { return frameHead }), 1},
		"key-mismatch":       {flip(func(int) int { return frameHead + len("group") + 2 }), 1},
		"corrupted-payload":  {flip(func(n int) int { return n - frameSum - 3 }), 1},
		"corrupted-checksum": {flip(func(n int) int { return n - 1 }), 1},
		"truncated":          {func(seg string, data []byte) error { return os.WriteFile(seg, data[:len(data)-40], 0o644) }, 0},
		"empty-file":         {func(seg string, _ []byte) error { return os.WriteFile(seg, nil, 0o644) }, 0},
		"no-header":          {func(seg string, _ []byte) error { return os.WriteFile(seg, []byte("not an artifact at all"), 0o644) }, 0},
		"version-mismatch": {func(seg string, _ []byte) error {
			future := filepath.Join(filepath.Dir(filepath.Dir(seg)), fmt.Sprintf("v%d", FormatVersion+1))
			if err := os.MkdirAll(future, 0o755); err != nil {
				return err
			}
			return os.Rename(seg, filepath.Join(future, filepath.Base(seg)))
		}, 0},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openDir(t, dir)
			keys := []string{"before", "after", "victim"}
			if c.faults > 0 {
				keys = []string{"before", "victim", "after"}
			}
			for _, k := range keys {
				if err := s.Put("group", k, payload); err != nil {
					t.Fatal(err)
				}
			}
			seg := onlySegment(t, s)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.hurt(seg, data); err != nil {
				t.Fatal(err)
			}

			r := openDir(t, dir)
			if got, ok := r.Get("group", "victim"); ok {
				t.Fatalf("damaged artifact served: %q", got)
			}
			if st := r.Stats(); st.Faults != c.faults {
				t.Fatalf("damage counted as %d faults, want %d", st.Faults, c.faults)
			}
			if c.faults > 0 {
				for _, k := range []string{"before", "after"} {
					if got, ok := r.Get("group", k); !ok || !bytes.Equal(got, payload) {
						t.Fatalf("%s next to the damage: %q %v", k, got, ok)
					}
				}
			}
			// The slot is recoverable: a rewrite serves again.
			if err := r.Put("group", "victim", payload); err != nil {
				t.Fatal(err)
			}
			again := openDir(t, dir)
			if got, ok := again.Get("group", "victim"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("rewrite after damage reads %q %v", got, ok)
			}
			if st := again.Stats(); st.Faults != 0 {
				t.Fatalf("damage faulted again on the next run: %+v", st)
			}
		})
	}
}

// TestDamagedArtifactRemoved pins the fault-loop fix: a damaged segment
// is removed by the Open that detects it, after its intact live frames
// are re-appended to the new segment, so its damage faults once, not on
// every future run, and nothing it held intact is lost.
func TestDamagedArtifactRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	for _, k := range []string{"kept", "victim", "superseded"} {
		if err := s.Put("sched", k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := openDir(t, dir).Put("sched", "superseded", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	seg := segments(t, s)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off, n := frameAt(t, data, 1)
	data[off+n-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openDir(t, dir)
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("damaged segment left on disk: %v", err)
	}
	if _, ok := r.Get("sched", "victim"); ok {
		t.Fatal("damaged artifact served")
	}
	// The second run reads a plain miss, not another fault, and the
	// salvaged frame; the superseded frame was not salvaged over its
	// successor.
	again := openDir(t, dir)
	if _, ok := again.Get("sched", "victim"); ok {
		t.Fatal("removed artifact served")
	}
	if got, ok := again.Get("sched", "kept"); !ok || string(got) != "payload of kept" {
		t.Fatalf("intact frame lost with its damaged segment: %q %v", got, ok)
	}
	if got, ok := again.Get("sched", "superseded"); !ok || string(got) != "newer" {
		t.Fatalf("salvage revived a superseded frame: %q %v", got, ok)
	}
	if st := r.Stats(); st.Faults != 1 {
		t.Fatalf("damage counted as %d faults, want 1", st.Faults)
	}
	if st := again.Stats(); st.Faults != 0 || st.Misses != 1 {
		t.Fatalf("fault loop not broken: %+v", st)
	}
}

// TestSegmentCutMidFrame: a segment cut anywhere — its writer still
// appending, or killed — serves every frame wholly before the cut, reads
// the cut frame as absent and counts no fault.
func TestSegmentCutMidFrame(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := s.Put("group", k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	seg := onlySegment(t, s)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openDir(t, dir)
		end := 0
		for i, k := range keys {
			_, n := frameAt(t, data, i)
			end += n
			got, ok := r.Get("group", k)
			if whole := end <= cut; ok != whole || ok && string(got) != "payload of "+k {
				t.Fatalf("cut at %d: frame %s (ends at %d) reads %q, %v", cut, k, end, got, ok)
			}
		}
		if st := r.Stats(); st.Faults != 0 {
			t.Fatalf("cut at %d counted as %d faults", cut, st.Faults)
		}
		if _, err := os.Stat(seg); err != nil {
			t.Fatalf("cut at %d: the cut segment was removed: %v", cut, err)
		}
	}
}

// TestLaterSegmentWins: each sequential store writes a segment ordered
// after every segment it saw, so its frames supersede theirs — also past
// the sequence numbers whose names sort the other way (9 < 10).
func TestLaterSegmentWins(t *testing.T) {
	dir := t.TempDir()
	for i := range 12 {
		s := openDir(t, dir)
		if i > 0 {
			if got, ok := s.Get("group", "k"); !ok || string(got) != strconv.Itoa(i-1) {
				t.Fatalf("store %d reads %q %v, want the previous store's frame", i, got, ok)
			}
		}
		if err := s.Put("group", "k", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSequentialStoresUnion: three sequential stores each add a cell to
// one key's record; a fourth store sees the union. This is how
// sequential shards sharing a directory build up one group record.
func TestSequentialStoresUnion(t *testing.T) {
	dir := t.TempDir()
	for _, cell := range []string{"cell-1;", "cell-2;", "cell-3;"} {
		s := openDir(t, dir)
		rec, _ := s.Get("group", "g")
		if err := s.Put("group", "g", append(bytes.Clone(rec), cell...)); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := openDir(t, dir).Get("group", "g"); !ok || string(got) != "cell-1;cell-2;cell-3;" {
		t.Fatalf("fourth store reads %q %v, want the union", got, ok)
	}
}

// TestOpenSweepsStaleTemps checks that Open reclaims temp files left by
// interrupted compactions, while sparing recent ones (a live compaction
// in another process) and segments.
func TestOpenSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	if err := s.Put("sched", "keep", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(s.Dir(), ".tmp-1-123"+segExt)
	fresh := filepath.Join(s.Dir(), ".tmp-1-456"+segExt)
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	s2 := openDir(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived reopen: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp reclaimed too eagerly: %v", err)
	}
	if got, ok := s2.Get("sched", "keep"); !ok || string(got) != "payload" {
		t.Fatalf("artifact lost in sweep: %q %v", got, ok)
	}
}

// TestConcurrentPutGet hammers one store from many goroutines (run under
// -race in CI): concurrent writers of the same key and readers racing
// them must only ever observe complete payloads, and every frame lands
// whole in the store's one segment.
func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	payload := bytes.Repeat([]byte("deterministic artifact content\n"), 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := "shared"
				if i%2 == 1 {
					key = fmt.Sprintf("own-%d", w)
				}
				if err := s.Put("eval", key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get("eval", "shared"); ok && !bytes.Equal(got, payload) {
					t.Errorf("torn read: %d bytes", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, ok := s.Get("eval", "shared"); !ok || !bytes.Equal(got, payload) {
		t.Fatal("final read failed")
	}
	onlySegment(t, s)
	r := openDir(t, dir)
	for w := 0; w < 8; w++ {
		if got, ok := r.Get("eval", fmt.Sprintf("own-%d", w)); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("writer %d's frame reads back as %d bytes, %v", w, len(got), ok)
		}
	}
	if st := r.Stats(); st.Faults != 0 {
		t.Fatalf("interleaved writes damaged frames: %+v", st)
	}
}

// TestDiscardRemovesDecodeFaults covers the codec-level variant of damage: the
// frame verifies but the caller cannot decode the payload, so it
// discards the key, which then reads as a miss, and the recompute's Put
// supersedes the frame: the next run does not fault again.
func TestDiscardRemovesDecodeFaults(t *testing.T) {
	dir := t.TempDir()
	if err := openDir(t, dir).Put("eval", "k", []byte("valid frame, bogus payload")); err != nil {
		t.Fatal(err)
	}
	s := openDir(t, dir)
	if _, ok := s.Get("eval", "k"); !ok {
		t.Fatal("frame not served")
	}
	s.Discard("eval", "k")
	if _, ok := s.Get("eval", "k"); ok {
		t.Fatal("discarded artifact served")
	}
	if st := s.Stats(); st.Faults != 1 {
		t.Fatalf("discard not counted: %+v", st)
	}
	if err := s.Put("eval", "k", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("eval", "k"); !ok || string(got) != "clean" {
		t.Fatalf("reinstall after discard failed: %q %v", got, ok)
	}
	r := openDir(t, dir)
	if got, ok := r.Get("eval", "k"); !ok || string(got) != "clean" {
		t.Fatalf("next run reads %q %v, want the recompute's frame", got, ok)
	}
	if st := r.Stats(); st.Faults != 0 {
		t.Fatalf("discarded frame faulted again: %+v", st)
	}
}
