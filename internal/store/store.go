// Package store is a content-addressed, persistent artifact store: the
// disk tier below internal/sweep's eval stage, and its only tier. It
// maps (stage, key) pairs — the key being a hex digest derived from the
// content triple internal/sweep keys its group records on — to opaque
// artifact payloads, so a second process evaluating the same problems
// reads the first one's results instead of recomputing them.
//
// # Layout and versioning
//
// Artifacts live under <dir>/v<FormatVersion>/<stage>/<key>. The format
// version appears both in the path and in every file's header, so a
// format change (container or artifact codec) invalidates the whole
// store cleanly: a new binary simply reads and writes a fresh version
// directory and never misinterprets old bytes.
//
// # Durability and concurrency
//
// Every file is self-verifying: a one-line header carries the payload
// length and its SHA-256, checked on read. Writes go to a temp file in
// the destination directory and are renamed into place, so readers —
// including concurrent processes sharing the directory — observe either
// no file or a complete one, never a torn write. Concurrent writers of
// the same key race benignly: artifacts are deterministic functions of
// their key, so whichever rename wins installs identical content.
//
// # Failure policy
//
// The store is a cache, not a system of record: every failure (missing
// file, truncation, corruption, version mismatch, unreadable directory)
// is reported as a miss or counted fault, never an error that stops the
// caller — the engine recomputes and tries to rewrite. Only Open fails
// hard, so a mistyped -cache-dir surfaces immediately.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// FormatVersion stamps the on-disk layout and the payload formats the
// engine writes (internal/pipeline's group records). Bump it whenever
// either changes shape; old artifacts are then invisible rather than
// misdecoded, and `ncdrf cache -gc` removes them.
const FormatVersion = 2

// magic leads every artifact file's header line.
const magic = "ncdrf-artifact"

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts Get calls that returned a verified payload.
	Hits uint64
	// Misses counts Get calls that found no artifact.
	Misses uint64
	// Writes counts artifacts successfully installed by Put.
	Writes uint64
	// Faults counts damaged or undecodable artifacts and failed writes:
	// truncation, checksum or version mismatches, I/O errors, and
	// payloads the caller reported via Discard. Faulty files are treated
	// as misses and recomputed.
	Faults uint64
}

// Store is a content-addressed artifact directory. It is safe for
// concurrent use by multiple goroutines and multiple processes sharing
// the same directory.
type Store struct {
	root string // <dir>/v<FormatVersion>

	hits, misses, writes, faults atomic.Uint64
}

// Open creates (if needed) and opens the version directory of an
// artifact store rooted at dir. It also sweeps stale temp files left
// behind by writers that were interrupted between CreateTemp and the
// final rename, so a long-lived shared directory does not accumulate
// dead .tmp-* litter.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sweepTemps(root)
	return &Store{root: root}, nil
}

// tempMaxAge is how old a .tmp-* file must be before Open reclaims it.
// The grace period keeps the sweep from racing a live writer in another
// process; real writes last milliseconds, so an hour is conservative.
const tempMaxAge = time.Hour

// sweepTemps best-effort removes stale temp files under every stage
// directory. Failures are ignored: leftover temps cost disk space, not
// correctness.
func sweepTemps(root string) {
	stages, err := os.ReadDir(root)
	if err != nil {
		return
	}
	//lint:allow wallclock -- stale-temp cleanup is wall-clock policy; never key or artifact material
	cutoff := time.Now().Add(-tempMaxAge)
	for _, st := range stages {
		if !st.IsDir() {
			continue
		}
		stageDir := filepath.Join(root, st.Name())
		files, err := os.ReadDir(stageDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			if !strings.HasPrefix(f.Name(), ".tmp-") {
				continue
			}
			if info, err := f.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(filepath.Join(stageDir, f.Name()))
			}
		}
	}
}

// Dir returns the store's version directory.
func (s *Store) Dir() string { return s.root }

// path maps (stage, key) to the artifact file. Stage names are fixed
// identifiers chosen by the engine and keys are hex digests, so both are
// safe path components by construction.
func (s *Store) path(stage, key string) string {
	return filepath.Join(s.root, stage, key)
}

// headerLine renders the self-verification line (sans newline) that
// leads every artifact. It is the one formatter for the header: the
// write side (header) and the read side (verifyPayload) both call it,
// so the two can never drift apart — a drift would make every fresh
// Put fail its next Get, and Get's damage removal would then delete
// the whole cache instead of merely missing.
func headerLine(version int, stage string, payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%s v%d %s %d %s",
		magic, version, stage, len(payload), hex.EncodeToString(sum[:]))
}

// header renders the header line Put writes.
func header(stage string, payload []byte) string {
	return headerLine(FormatVersion, stage, payload) + "\n"
}

// verifyPayload checks data's header against (version, stage) and
// returns the framed payload. It is the one verification routine: Get
// uses it with the current FormatVersion, Scan with whatever version
// directory a file was found under.
func verifyPayload(data []byte, version int, stage string) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	payload := data[nl+1:]
	if string(data[:nl]) != headerLine(version, stage, payload) {
		return nil, false
	}
	return payload, true
}

// Get returns the verified payload stored under (stage, key), or false
// when it is absent or damaged. Damage (truncation, corruption, version
// or stage mismatch) counts as a fault and reads as a miss: the caller
// recomputes. A verified-damaged file is best-effort removed — leaving
// it on disk would fault again on every future run, a permanent
// fault-loop — so the recompute's Put installs a clean one. The
// removal can race another process repairing the same key (its fresh
// artifact is deleted and reads as a miss next time); that is within
// the store's best-effort contract and costs one recompute.
func (s *Store) Get(stage, key string) ([]byte, bool) {
	path := s.path(stage, key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
		} else {
			s.faults.Add(1)
		}
		return nil, false
	}
	payload, ok := verifyPayload(data, FormatVersion, stage)
	if !ok {
		os.Remove(path)
		s.faults.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put installs payload under (stage, key) via a temp file and an atomic
// rename. Errors are counted as faults and returned for observability,
// but callers treat the store as best-effort and keep going.
func (s *Store) Put(stage, key string, payload []byte) error {
	dir := filepath.Join(s.root, stage)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.faults.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+key+"-*")
	if err != nil {
		s.faults.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.WriteString(header(stage, payload))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(stage, key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.faults.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Discard records an artifact that passed container verification but
// failed the caller's decoding — e.g. one written by a buggy build — as
// a fault, and best-effort removes (stage, key)'s file: for
// decode-level damage, where the container verifies but the payload is
// undecodable, so without removal the artifact would fault again on
// every future run instead of letting the recompute's Put replace it.
func (s *Store) Discard(stage, key string) {
	s.faults.Add(1)
	os.Remove(s.path(stage, key))
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
