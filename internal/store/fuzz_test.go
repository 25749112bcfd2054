package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

// FuzzStoreSegment holds the segment reader every artifact read goes
// through (Open and Scan) to two properties. On arbitrary segment bytes
// neither panics, and each serves only frames whose checksum verifies:
// whatever Get returns is framed, byte for byte, somewhere in the
// segment, and Scan lists exactly what Get serves. And a segment holding
// one frame of the fuzzed payload serves it back, unless any single byte
// of the frame is changed: then nothing is served. The seeds frame a real
// group record of a kernel: as a whole segment, as a payload, and as a
// segment cut mid-frame.
func FuzzStoreSegment(f *testing.F) {
	b, err := pipeline.NewBase(loops.Kernels()[0], machine.Eval(6), sched.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var rec pipeline.Record
	cells := []pipeline.Cell{{Model: core.Unified, Regs: 16}, {Model: core.Swapped, Regs: 32}}
	res, errs := pipeline.MeasureCells(context.Background(), nil, b, cells)
	for i, c := range cells {
		rec.Put(c, errs[i] != nil, res[i])
	}
	payload := pipeline.AppendRecord(nil, &rec)
	segment := append(newFrame("group", "00ff", payload), newFrame("group", "00ff", nil)...)
	f.Add(segment, payload, uint(0), byte(0))
	f.Add(payload, segment, uint(len(segment)/2), byte(1))
	f.Add(segment[:len(segment)-frameSum/2], []byte{}, uint(2), byte(0x80))
	f.Add([]byte{}, payload, uint(len(payload)), byte(0xff))
	f.Fuzz(func(t *testing.T, data, payload []byte, at uint, flip byte) {
		for _, got := range readSegment(t, data) {
			if !bytes.Contains(data, newFrame(got.stage, got.key, got.payload)) {
				t.Fatalf("served %s/%s = %q, which no verified frame holds", got.stage, got.key, got.payload)
			}
		}
		frame := newFrame("group", "00ff", payload)
		frame[at%uint(len(frame))] ^= flip
		served := readSegment(t, frame)
		switch {
		case flip == 0 && (len(served) != 1 || !bytes.Equal(served[0].payload, payload)):
			t.Fatalf("a framed payload reads back as %+v", served)
		case flip != 0 && len(served) != 0:
			t.Fatalf("byte %d changed by %#x still serves %+v", at%uint(len(frame)), flip, served)
		}
	})
}

// served is one artifact a store serves.
type served struct {
	stage, key string
	payload    []byte
}

// readSegment opens a store over a directory whose only segment holds
// data and returns what it serves: every live entry Scan lists, each
// checked to be exactly what Get returns.
func readSegment(t *testing.T, data []byte) []served {
	t.Helper()
	dir := t.TempDir()
	root := filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion))
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "1-fuzz"+segExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := openDir(t, dir)
	var out []served
	for _, e := range sum.Entries {
		p, ok := s.Get(e.Stage, e.Key)
		if !ok {
			t.Fatalf("Scan lists %s/%s, which Get does not serve", e.Stage, e.Key)
		}
		out = append(out, served{e.Stage, e.Key, p})
	}
	if st := s.Stats(); st.Hits != uint64(len(out)) {
		t.Fatalf("%d hits for %d entries", st.Hits, len(out))
	}
	return out
}
