// Package store is a persistent artifact store, the disk tier below
// internal/sweep's eval stage: it maps (stage, key) pairs to payloads,
// so a second process evaluating the same problems reads the first one's
// results. Artifacts are checksummed frames appended to segment files,
// <dir>/v<FormatVersion>/<seq>-<unique>.seg, one per writing process;
// DESIGN.md gives the format, the order in which frames supersede each
// other, and the recovery rules. The store is a cache, not a system of
// record: every failure is a miss or a counted fault, never an error
// that stops the caller, and only Open fails hard, so a mistyped
// -cache-dir surfaces immediately.
package store

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FormatVersion stamps the on-disk layout and the payload formats the
// engine writes (internal/pipeline's group records). Bump it whenever
// either changes shape; old artifacts are then invisible rather than
// misdecoded, and `ncdrf cache -gc` removes them.
const FormatVersion = 3

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts Get calls that returned a verified payload.
	Hits uint64
	// Misses counts Get calls that found no artifact.
	Misses uint64
	// Writes counts artifacts successfully appended by Put.
	Writes uint64
	// Faults counts damaged or undecodable artifacts and failed writes:
	// frames whose checksum fails and unreadable segments (counted by
	// Open, and by Get for the frames this store wrote), I/O errors, and
	// payloads the caller reported via Discard.
	// Faulty artifacts are treated as misses and recomputed.
	Faults uint64
}

// Store is an artifact directory. It is safe for concurrent use by
// multiple goroutines and multiple processes sharing the same directory.
type Store struct {
	root string // <dir>/v<FormatVersion>

	mu    sync.Mutex
	index map[entry]slot // where each (stage, key)'s winning frame is
	seq   uint64         // the sequence number of this store's segment
	seg   *os.File       // this store's segment, created by the first Put
	end   int64          // the size of seg

	hits, misses, writes, faults atomic.Uint64
}

// entry is the index key of one artifact.
type entry struct{ stage, key string }

// slot locates an artifact's winning frame: in memory, for a frame Open
// read from an earlier segment, or by offset and size in the store's
// own segment, for a frame this process appended. The index keeps no
// copy of what the process writes; Get reads it back.
type slot struct {
	frame []byte // nil for a frame of the store's own segment
	off   int64
	size  int
}

// Open creates (if needed) and opens the version directory of an
// artifact store rooted at dir, and reads and verifies every segment once
// to serve Get from memory. Damage faults once: each damaged segment's
// live frames are re-appended to the store's own segment, and then it is
// removed. Open also sweeps stale temp files of interrupted compactions.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	segs, temps, err := readVersion(root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	//lint:allow wallclock -- stale-temp cleanup is wall-clock policy; never key or artifact material
	cutoff := time.Now().Add(-time.Hour) // spares a live compaction in another process
	for _, name := range temps {
		if info, err := os.Lstat(filepath.Join(root, name)); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(root, name))
		}
	}
	idx := indexFrames(segs)
	s := &Store{root: root, index: make(map[entry]slot, len(idx))}
	for e, frame := range idx {
		s.index[e] = slot{frame: frame}
	}
	for _, seg := range segs {
		s.seq = max(s.seq, seg.seq)
		s.faults.Add(uint64(seg.damaged))
	}
	s.seq++
	s.mu.Lock()
	defer s.mu.Unlock()
salvage:
	for _, seg := range segs {
		if seg.damaged == 0 {
			continue
		}
		for _, frame := range seg.frames {
			e, ok := live(idx, frame)
			if !ok {
				continue
			}
			off, err := s.append(frame)
			if err != nil {
				continue salvage // keep the segment: a frame was not saved
			}
			s.index[e] = slot{off: off, size: len(frame)}
		}
		os.Remove(filepath.Join(root, seg.name))
	}
	return s, nil
}

// Dir returns the store's version directory.
func (s *Store) Dir() string { return s.root }

// Get returns the verified payload stored under (stage, key), or false
// when it is absent, damaged or discarded. A frame of the store's own
// segment is read back from disk and verified as Open verifies frames;
// one that fails counts as a fault and is dropped from the index. The
// payload may be shared with the store: callers must not modify it.
func (s *Store) Get(stage, key string) ([]byte, bool) {
	e := entry{stage, key}
	s.mu.Lock()
	sl, ok := s.index[e]
	seg := s.seg
	s.mu.Unlock()
	frame := sl.frame
	if ok && frame == nil {
		if frame, ok = readFrame(seg, sl, e); !ok {
			s.faults.Add(1)
			s.mu.Lock()
			if cur := s.index[e]; cur.frame == nil && cur.off == sl.off {
				delete(s.index, e) // unless a later Put superseded it
			}
			s.mu.Unlock()
		}
	}
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	_, _, payload := fields(frame)
	return payload, true
}

// readFrame reads the frame at sl in seg and reports whether it is
// whole, verifies and holds e.
func readFrame(seg *os.File, sl slot, e entry) ([]byte, bool) {
	frame := make([]byte, sl.size)
	if _, err := seg.ReadAt(frame, sl.off); err != nil {
		return nil, false
	}
	if n, ok := nextFrame(frame); n != len(frame) || !ok {
		return nil, false
	}
	stage, key, _ := fields(frame)
	return frame, string(stage) == e.stage && string(key) == e.key
}

// Put appends payload's frame under (stage, key) to the store's segment
// with one write, superseding every earlier frame for the key. Errors
// are counted as faults and returned, but callers keep going.
func (s *Store) Put(stage, key string, payload []byte) error {
	if len(stage) > math.MaxUint8 || len(key) > math.MaxUint8 || uint64(len(payload)) > math.MaxUint32 {
		s.faults.Add(1)
		return fmt.Errorf("store: %s artifact %q is too large to frame", stage, key)
	}
	frame := newFrame(stage, key, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	off, err := s.append(frame)
	if err != nil {
		s.faults.Add(1)
		return err
	}
	s.index[entry{stage, key}] = slot{off: off, size: len(frame)}
	s.writes.Add(1)
	return nil
}

// append writes frame to the store's segment, created on first use
// under the store's sequence number, and returns its offset there.
// s.mu must be held.
func (s *Store) append(frame []byte) (int64, error) {
	if s.seg == nil {
		f, err := os.CreateTemp(s.root, strconv.FormatUint(s.seq, 10)+"-*"+segExt)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		s.seg = f
	}
	off := s.end
	n, err := s.seg.Write(frame)
	s.end += int64(n)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return off, nil
}

// Discard records an artifact that passed frame verification but failed
// the caller's decoding — e.g. one written by a buggy build — as a
// fault, and drops (stage, key) from the index, so it reads as a miss
// and the recompute's Put supersedes its frame.
func (s *Store) Discard(stage, key string) {
	s.faults.Add(1)
	s.mu.Lock()
	delete(s.index, entry{stage, key})
	s.mu.Unlock()
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Writes: s.writes.Load(),
		Faults: s.faults.Load(),
	}
}

// A frame is a 6-byte head — the stage's and the key's lengths, one byte
// each, and the payload's, four bytes big-endian — then the stage, the
// key and the payload, then the SHA-256 of everything before it.
const (
	frameHead = 6
	frameSum  = sha256.Size
	segExt    = ".seg"
)

// newFrame returns the frame of (stage, key, payload).
func newFrame(stage, key string, payload []byte) []byte {
	buf := make([]byte, 0, frameHead+len(stage)+len(key)+len(payload)+frameSum)
	buf = append(buf, byte(len(stage)), byte(len(key)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(append(append(buf, stage...), key...), payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// nextFrame measures the frame data starts with: its length, or 0 when
// data holds no complete frame (it is empty, or its frame is cut short),
// and whether its checksum verifies.
func nextFrame(data []byte) (int, bool) {
	if len(data) < frameHead {
		return 0, false
	}
	n := uint64(frameHead+int(data[0])+int(data[1])+frameSum) + uint64(binary.BigEndian.Uint32(data[2:]))
	if uint64(len(data)) < n {
		return 0, false
	}
	sum := sha256.Sum256(data[:n-frameSum])
	return int(n), bytes.Equal(sum[:], data[n-frameSum:n])
}

// fields splits a complete frame into its stage, key and payload. The
// payload's capacity ends with it.
func fields(frame []byte) (stage, key, payload []byte) {
	k := frameHead + int(frame[0])
	p := k + int(frame[1])
	end := len(frame) - frameSum
	return frame[frameHead:k], frame[k:p], frame[p:end:end]
}

// live returns frame's index key, and whether frame is the one idx
// serves for it.
func live(idx map[entry][]byte, frame []byte) (entry, bool) {
	stage, key, _ := fields(frame)
	e := entry{string(stage), string(key)}
	served := idx[e]
	return e, len(served) > 0 && &served[0] == &frame[0]
}

// segment is one segment file of the current version, read whole: its
// complete frames whose checksum verifies, in order, and the number of
// those that fail (one for a segment that could not be read).
type segment struct {
	name    string
	seq     uint64
	info    fs.FileInfo
	frames  [][]byte
	damaged int
}

// readVersion lists root's segments in supersede order — ascending
// sequence number, ties by name — reads and parses them, and lists the
// names of its leftover temp files. A segment that vanished since the
// listing (a concurrent GC) is left empty.
func readVersion(root string) (segs []segment, temps []string, err error) {
	files, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range files {
		seq, rest, _ := strings.Cut(f.Name(), "-")
		n, err := strconv.ParseUint(seq, 10, 64)
		switch info, ierr := f.Info(); {
		case strings.HasPrefix(f.Name(), ".tmp-"):
			temps = append(temps, f.Name())
		case err == nil && strings.HasSuffix(rest, segExt) && ierr == nil && info.Mode().IsRegular():
			segs = append(segs, segment{name: f.Name(), seq: n, info: info})
		}
	}
	slices.SortFunc(segs, func(a, b segment) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), strings.Compare(a.name, b.name))
	})
	for i := range segs {
		seg := &segs[i]
		data, err := os.ReadFile(filepath.Join(root, seg.name))
		seg.frames, seg.damaged = parseSegment(data)
		if err != nil && !os.IsNotExist(err) {
			seg.damaged = 1
		}
	}
	return segs, temps, nil
}

// parseSegment splits a segment's bytes into its complete frames whose
// checksum verifies, in order, each capped at its end, and counts the
// complete frames whose checksum fails. A frame cut short at the end of
// data is neither.
func parseSegment(data []byte) (frames [][]byte, damaged int) {
	for n, ok := nextFrame(data); n > 0; n, ok = nextFrame(data) {
		if ok {
			frames = append(frames, data[:n:n])
		} else {
			damaged++
		}
		data = data[n:]
	}
	return frames, damaged
}

// indexFrames maps each (stage, key) to its winning frame among segs,
// which are in supersede order.
func indexFrames(segs []segment) map[entry][]byte {
	idx := map[entry][]byte{}
	for _, seg := range segs {
		for _, frame := range seg.frames {
			e, _ := live(nil, frame)
			idx[e] = frame
		}
	}
	return idx
}
