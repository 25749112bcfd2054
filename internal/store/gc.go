package store

import (
	"cmp"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// EntryInfo describes one live frame of the current version — the one
// Get serves for its (stage, key) — or one file under a stale version
// directory (Version != FormatVersion), which has no Stage and whose Key
// is its path there. Size is the frame's or file's size, and ModTime the
// modification time of its segment or file.
type EntryInfo struct {
	Version    int
	Stage, Key string
	Size       int64
	ModTime    time.Time
}

// Summary is the outcome of a scan of Dir, a -cache-dir root. Entries
// lists the current version's live frames and every stale file, sorted
// by (version, stage, key). Segments counts the current version's
// segment files, Damaged names those holding a frame whose checksum
// fails, and Superseded counts the verified frames a later frame for
// their key supersedes. Temps counts the .tmp-* files of interrupted
// compactions; Foreign counts top-level entries that are not a v<N>
// directory, which GC never touches.
type Summary struct {
	Dir                                  string
	Entries                              []EntryInfo
	Damaged                              []string
	Segments, Superseded, Temps, Foreign int

	segs  []segment // the current version's, for GC
	temps []string  // absolute paths, for GC
	stale []int     // stale version numbers, for GC
}

// Scan enumerates an artifact directory for `ncdrf cache`: every version
// directory, with each current-version segment re-verified frame by
// frame (reading every byte, fine for a maintenance command). Scan never
// modifies the directory.
func Scan(dir string) (*Summary, error) {
	tops, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sum := &Summary{Dir: dir}
	for _, top := range tops {
		v, verr := strconv.Atoi(strings.TrimPrefix(top.Name(), "v"))
		vdir := filepath.Join(dir, top.Name())
		switch {
		case verr != nil || v < 0 || !strings.HasPrefix(top.Name(), "v") || !top.IsDir():
			sum.Foreign++
		case v != FormatVersion:
			sum.stale = append(sum.stale, v)
			err = filepath.WalkDir(vdir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					var info fs.FileInfo
					if info, err = d.Info(); err == nil {
						rel, _ := filepath.Rel(vdir, path)
						sum.Entries = append(sum.Entries, EntryInfo{Version: v, Key: rel, Size: info.Size(), ModTime: info.ModTime()})
					}
				}
				return err
			})
		default:
			err = sum.scanCurrent(vdir)
		}
		// Skip what a concurrent GC removed mid-scan, but surface anything
		// else: an unreadable store reported as empty invites deleting it.
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	slices.SortFunc(sum.Entries, func(a, b EntryInfo) int {
		return cmp.Or(cmp.Compare(a.Version, b.Version), strings.Compare(a.Stage, b.Stage), strings.Compare(a.Key, b.Key))
	})
	return sum, nil
}

// scanCurrent reads the current version directory vdir into s.
func (s *Summary) scanCurrent(vdir string) error {
	segs, temps, err := readVersion(vdir)
	if err != nil {
		return err
	}
	s.segs, s.Segments = segs, len(segs)
	for _, name := range temps {
		s.temps = append(s.temps, filepath.Join(vdir, name))
	}
	s.Temps = len(temps)
	idx := indexFrames(segs)
	for _, seg := range segs {
		if seg.damaged > 0 {
			s.Damaged = append(s.Damaged, seg.name)
		}
		s.Superseded += len(seg.frames)
		for _, frame := range seg.frames {
			if e, ok := live(idx, frame); ok {
				s.Entries = append(s.Entries, EntryInfo{Version: FormatVersion, Stage: e.stage, Key: e.key,
					Size: int64(len(frame)), ModTime: seg.info.ModTime()})
			}
		}
	}
	s.Superseded -= len(idx)
	return nil
}

// GCOptions selects what GC removes beyond the always-removed classes
// (stale versions, damaged frames, leftover temps, superseded frames):
// with a positive MaxAge, current-version segments older than it too.
// DryRun reports what would be removed without removing anything.
type GCOptions struct {
	MaxAge time.Duration
	DryRun bool
}

// GCResult reports what GC removed (or, under DryRun, would remove):
// stale-version files and leftover temp files; damaged segments,
// segments older than MaxAge, and intact segments compacted into one;
// and the bytes of everything removed, less the compacted segment's.
// Kept counts the live frames.
type GCResult struct {
	StaleVersions, Temps, Damaged, Expired, Compacted, Kept int
	Bytes                                                   int64
}

// Removed returns the total number of files removed.
func (r GCResult) Removed() int {
	return r.StaleVersions + r.Damaged + r.Expired + r.Compacted + r.Temps
}

// GC prunes the scanned directory: stale version directories, leftover
// temp files and, with MaxAge, current-version segments older than the
// cutoff. It then compacts the other segments: their live frames,
// damaged segments' intact ones included, go to one new segment under
// their highest sequence number and oldest modification time (so
// -max-age never keeps a frame past its age), and they are removed. To a
// live engine a removed frame is a miss, recomputed: that is all an
// engine still appending to a compacted segment loses.
func (s *Summary) GC(opt GCOptions) (*GCResult, error) {
	res := &GCResult{}
	cutoff := time.Time{}
	if opt.MaxAge > 0 {
		//lint:allow wallclock -- -max-age expiry is wall-clock policy; never key or artifact material
		cutoff = time.Now().Add(-opt.MaxAge)
	}
	// remove counts only what left the disk, so the summary stays
	// truthful; a file that vanished since the scan is gone either way.
	remove := func(path string, size int64, reason *int) {
		if !opt.DryRun {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return
			}
		}
		*reason++
		res.Bytes += size
	}
	for _, v := range s.stale {
		if opt.DryRun || os.RemoveAll(filepath.Join(s.Dir, fmt.Sprintf("v%d", v))) == nil {
			for _, e := range s.Entries {
				if e.Version == v {
					res.StaleVersions++
					res.Bytes += e.Size
				}
			}
		}
	}
	for _, path := range s.temps {
		if info, err := os.Lstat(path); err == nil {
			remove(path, info.Size(), &res.Temps)
		}
	}
	vdir := filepath.Join(s.Dir, fmt.Sprintf("v%d", FormatVersion))
	var keep []segment
	for _, seg := range s.segs {
		if !cutoff.IsZero() && seg.info.ModTime().Before(cutoff) {
			remove(filepath.Join(vdir, seg.name), seg.info.Size(), &res.Expired)
		} else {
			keep = append(keep, seg)
		}
	}
	idx := indexFrames(keep)
	var data []byte
	var seq uint64
	var oldest time.Time
	for _, seg := range keep {
		seq = max(seq, seg.seq)
		if oldest.IsZero() || seg.info.ModTime().Before(oldest) {
			oldest = seg.info.ModTime()
		}
		for _, frame := range seg.frames {
			if _, ok := live(idx, frame); ok {
				data = append(data, frame...)
			}
		}
	}
	res.Kept = len(idx)
	if len(keep) == 1 && keep[0].info.Size() == int64(len(data)) {
		return res, nil // one segment of live frames only
	}
	if len(data) > 0 && !opt.DryRun {
		if err := writeSegment(vdir, seq, oldest, data); err != nil {
			return nil, err
		}
	}
	res.Bytes -= int64(len(data))
	for _, seg := range keep {
		reason := &res.Compacted
		if seg.damaged > 0 {
			reason = &res.Damaged
		}
		remove(filepath.Join(vdir, seg.name), seg.info.Size(), reason)
	}
	return res, nil
}

// writeSegment installs data as a segment of vdir under sequence number
// seq, modified at mtime: written to a temp file, synced, and renamed
// into place, so a concurrent Open reads all of it or none.
func writeSegment(vdir string, seq uint64, mtime time.Time, data []byte) error {
	tmp, err := os.CreateTemp(vdir, ".tmp-"+strconv.FormatUint(seq, 10)+"-*"+segExt)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
	if err = cmp.Or(err, tmp.Sync(), tmp.Close()); err == nil {
		err = os.Chtimes(tmp.Name(), mtime, mtime)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(vdir, strings.TrimPrefix(filepath.Base(tmp.Name()), ".tmp-")))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
