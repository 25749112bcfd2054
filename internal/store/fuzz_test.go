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

// segmentSeed is one input of FuzzStoreSegment: segment bytes, and a
// payload framed alone with the byte at at changed by flip.
type segmentSeed struct {
	data, payload []byte
	at            uint
	flip          byte
}

// segmentSeeds frame a real group record of a kernel: as a whole
// segment, as a payload, and as a segment cut mid-frame.
func segmentSeeds(t testing.TB) []segmentSeed {
	b, err := pipeline.NewBase(loops.Kernels()[0], machine.Eval(6), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rec pipeline.Record
	cells := []pipeline.Cell{{Model: core.Unified, Regs: 16}, {Model: core.Swapped, Regs: 32}}
	res, errs := pipeline.MeasureCells(context.Background(), nil, b, cells)
	for i, c := range cells {
		rec.Put(c, errs[i] != nil, res[i])
	}
	payload := pipeline.AppendRecord(nil, &rec)
	segment := append(newFrame("group", "00ff", payload), newFrame("group", "00ff", nil)...)
	return []segmentSeed{
		{segment, payload, 0, 0},
		{payload, segment, uint(len(segment) / 2), 1},
		{segment[:len(segment)-frameSum/2], []byte{}, 2, 0x80},
		{[]byte{}, payload, uint(len(payload)), 0xff},
	}
}

// flipped returns the frame of payload with the byte at at changed by
// flip.
func flipped(payload []byte, at uint, flip byte) []byte {
	frame := newFrame("group", "00ff", payload)
	frame[at%uint(len(frame))] ^= flip
	return frame
}

// FuzzStoreSegment holds the segment parser every artifact read goes
// through (Open and Scan, by way of readVersion) to two properties, over
// bytes alone. On arbitrary segment bytes it never panics and serves
// only frames whose checksum verifies: each frame it returns, and each
// frame the index over them (what Get serves) holds, is a verified
// frame of the segment, byte for byte. And a segment holding one frame
// of the fuzzed payload serves it back, unless any single byte of the
// frame is changed: then nothing is served. TestSegmentSeedsThroughStore
// runs the seeds through a real directory.
func FuzzStoreSegment(f *testing.F) {
	for _, s := range segmentSeeds(f) {
		f.Add(s.data, s.payload, s.at, s.flip)
	}
	f.Fuzz(func(t *testing.T, data, payload []byte, at uint, flip byte) {
		frames, _ := parseSegment(data)
		verified := func(frame []byte) bool {
			stage, key, p := fields(frame)
			return bytes.Equal(newFrame(string(stage), string(key), p), frame) && bytes.Contains(data, frame)
		}
		for _, frame := range frames {
			if !verified(frame) {
				t.Fatalf("parsed %q, which is no verified frame of the segment", frame)
			}
		}
		for e, frame := range indexFrames([]segment{{frames: frames}}) {
			if !verified(frame) {
				t.Fatalf("the index serves %s/%s as %q, which is no verified frame of the segment", e.stage, e.key, frame)
			}
		}
		served, _ := parseSegment(flipped(payload, at, flip))
		switch {
		case flip == 0 && (len(served) != 1 || !bytes.Equal(served[0], newFrame("group", "00ff", payload))):
			t.Fatalf("a framed payload parses as %q", served)
		case flip != 0 && len(served) != 0:
			t.Fatalf("byte %d changed by %#x still parses as %q", at, flip, served)
		}
	})
}

// TestSegmentSeedsThroughStore runs FuzzStoreSegment's seeds through a
// real directory, so the file-level readers stay held to the parser's
// properties: whatever Get serves is framed, byte for byte, in the
// segment, Scan lists exactly what Get serves, and a frame with a
// changed byte serves nothing.
func TestSegmentSeedsThroughStore(t *testing.T) {
	for i, s := range segmentSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			for _, got := range readSegment(t, s.data) {
				if !bytes.Contains(s.data, newFrame(got.stage, got.key, got.payload)) {
					t.Fatalf("served %s/%s = %q, which no verified frame holds", got.stage, got.key, got.payload)
				}
			}
			served := readSegment(t, flipped(s.payload, s.at, s.flip))
			switch {
			case s.flip == 0 && (len(served) != 1 || !bytes.Equal(served[0].payload, s.payload)):
				t.Fatalf("a framed payload reads back as %+v", served)
			case s.flip != 0 && len(served) != 0:
				t.Fatalf("byte %d changed by %#x still serves %+v", s.at, s.flip, served)
			}
		})
	}
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
