package store

import (
	"bytes"
	"context"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

// FuzzStoreContainer holds the self-verifying container every artifact
// file is read through (verifyPayload) to three properties: it never
// panics on arbitrary bytes, and whatever it accepts is exactly a header
// followed by the payload it returns; a payload framed by header reads
// back unchanged; and any single-byte change to a framed artifact reads
// as unverified. Seeds are a real schedule artifact and a real spilled
// model-result artifact, each as the whole file and as a payload.
func FuzzStoreContainer(f *testing.F) {
	m := machine.Eval(6)
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		f.Fatal("missing kernel")
	}
	b, err := pipeline.NewBase(g, m, sched.Options{})
	if err != nil {
		f.Fatal(err)
	}
	res, err := pipeline.Evaluate(context.Background(), nil, b, core.Unified, 24)
	if err != nil {
		f.Fatal(err)
	}
	var sbuf, rbuf bytes.Buffer
	if err := pipeline.EncodeSchedule(&sbuf, b.Sched); err != nil {
		f.Fatal(err)
	}
	if err := pipeline.EncodeModelResult(&rbuf, res); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		eval    bool
		payload []byte
	}{{false, sbuf.Bytes()}, {true, rbuf.Bytes()}} {
		file := append([]byte(header(stageName(seed.eval), seed.payload)), seed.payload...)
		f.Add(seed.eval, seed.payload, uint(len(file)/2), byte(1))
		f.Add(seed.eval, file, uint(0), byte('\n'))
	}
	f.Fuzz(func(t *testing.T, eval bool, data []byte, at uint, flip byte) {
		stage := stageName(eval)
		if p, ok := verifyPayload(data, FormatVersion, stage); ok {
			if !bytes.Equal(append([]byte(header(stage, p)), p...), data) {
				t.Fatalf("accepted a file that is not header(%q, payload) + payload:\n%q", stage, data)
			}
		}
		file := append([]byte(header(stage, data)), data...)
		p, ok := verifyPayload(file, FormatVersion, stage)
		if !ok || !bytes.Equal(p, data) {
			t.Fatalf("a framed payload reads back as %q, %v", p, ok)
		}
		if flip == 0 {
			return
		}
		file[at%uint(len(file))] ^= flip
		if p, ok := verifyPayload(file, FormatVersion, stage); ok {
			t.Fatalf("byte %d changed by %#x still verifies, payload %q", at%uint(len(file)), flip, p)
		}
	})
}

// stageName names the engine's eval or schedule stage.
func stageName(eval bool) string {
	if eval {
		return "eval"
	}
	return "sched"
}
