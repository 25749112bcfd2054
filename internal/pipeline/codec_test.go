package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// canonical returns the graph's canonical text encoding, the content
// identity the whole cache layer keys on.
func canonical(t *testing.T, g *ddg.Graph) string {
	t.Helper()
	var b bytes.Buffer
	if err := g.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestScheduleCodecRoundTrip pins the round-trip equivalence guarantee
// for base schedules across the whole kernel corpus: decode(encode(s))
// is content-identical to s on both machines of the paper.
func TestScheduleCodecRoundTrip(t *testing.T) {
	corpus := append(loops.Kernels(), loops.PaperExample())
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for _, g := range corpus {
			b, err := NewBase(g, m, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeSchedule(&buf, b.Sched); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSchedule(bytes.NewReader(buf.Bytes()), m)
			if err != nil {
				t.Fatalf("%s on %s: decode: %v", g.LoopName, m.Name(), err)
			}
			if got.II != b.Sched.II {
				t.Fatalf("%s: II %d != %d", g.LoopName, got.II, b.Sched.II)
			}
			for id := range got.Start {
				if got.Start[id] != b.Sched.Start[id] || got.FU[id] != b.Sched.FU[id] {
					t.Fatalf("%s: node %d placement differs", g.LoopName, id)
				}
			}
			if canonical(t, got.Graph) != canonical(t, b.Sched.Graph) {
				t.Fatalf("%s: decoded graph content differs", g.LoopName)
			}
			if got.Graph == b.Sched.Graph {
				t.Fatalf("%s: decoded schedule aliases the source graph", g.LoopName)
			}
		}
	}
}

// TestModelResultCodecRoundTrip checks the per-model artifacts: every
// kernel under every model, with a register budget small enough to force
// spilling on part of the corpus, must decode to a result equivalent to
// the in-memory one — same counters, same schedule, same canonical graph
// (including spill-slot marks), and the same recomputed register
// requirement.
func TestModelResultCodecRoundTrip(t *testing.T) {
	m := machine.Eval(6)
	ctx := context.Background()
	spilled := 0
	for _, g := range loops.Kernels() {
		b, err := NewBase(g, m, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range core.Models {
			res, err := Evaluate(ctx, nil, b, model, 16)
			if err != nil {
				t.Fatal(err)
			}
			if res.SpilledValues > 0 {
				spilled++
			}
			var buf bytes.Buffer
			if err := EncodeModelResult(&buf, res); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeModelResult(bytes.NewReader(buf.Bytes()), m)
			if err != nil {
				t.Fatalf("%s/%v: decode: %v", g.LoopName, model, err)
			}
			if got.Model != res.Model ||
				got.SpilledValues != res.SpilledValues ||
				got.SpillStores != res.SpillStores ||
				got.SpillLoads != res.SpillLoads ||
				got.IIBumps != res.IIBumps ||
				got.Iterations != res.Iterations {
				t.Fatalf("%s/%v: counters differ: %+v vs %+v", g.LoopName, model, got, res)
			}
			if got.Sched.II != res.Sched.II || got.MemOps() != res.MemOps() {
				t.Fatalf("%s/%v: schedule shape differs", g.LoopName, model)
			}
			if canonical(t, got.Graph) != canonical(t, res.Graph) {
				t.Fatalf("%s/%v: decoded graph content differs", g.LoopName, model)
			}
			// Spill-slot marks are not part of the canonical text
			// encoding, so pin them explicitly: the vm layer depends
			// on them.
			for id := 0; id < res.Graph.NumNodes(); id++ {
				if got.Graph.Node(id).SpillSlot != res.Graph.Node(id).SpillSlot {
					t.Fatalf("%s/%v: node %d spill slot differs", g.LoopName, model, id)
				}
			}
			wantReq, _, err1 := res.Requirement()
			gotReq, _, err2 := got.Requirement()
			if err1 != nil || err2 != nil || wantReq != gotReq {
				t.Fatalf("%s/%v: requirement %d,%v != %d,%v", g.LoopName, model, gotReq, err2, wantReq, err1)
			}
			if len(got.Lifetimes) != len(res.Lifetimes) {
				t.Fatalf("%s/%v: lifetime count differs", g.LoopName, model)
			}
			for i := range got.Lifetimes {
				if got.Lifetimes[i] != res.Lifetimes[i] {
					t.Fatalf("%s/%v: lifetime %d differs", g.LoopName, model, i)
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("test corpus exercised no spilling result; tighten the register budget")
	}
}

// TestCodecRejectsDamage checks that damaged artifacts decode to errors,
// never to panics or plausible results: truncation at every line, field
// corruption, and machine mismatch.
func TestCodecRejectsDamage(t *testing.T) {
	m := machine.Eval(3)
	g, ok := loops.KernelByName("daxpy")
	if !ok {
		t.Fatal("missing kernel")
	}
	b, err := NewBase(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(context.Background(), nil, b, core.Unified, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeModelResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	art := buf.String()

	// Truncation after every line must error, not panic.
	lines := strings.SplitAfter(art, "\n")
	for i := 0; i < len(lines)-1; i++ {
		prefix := strings.Join(lines[:i], "")
		if _, err := DecodeModelResult(strings.NewReader(prefix), m); err == nil {
			t.Fatalf("truncation after %d lines decoded successfully", i)
		}
	}
	// Wrong machine: the artifact records eval-L3.
	if _, err := DecodeModelResult(strings.NewReader(art), machine.Eval(6)); err == nil {
		t.Fatal("machine mismatch not detected")
	}
	// Corrupt an issue cycle: the decoded schedule must fail verification.
	broken := strings.Replace(art, "\nop ", "\nop 9999", 1)
	if _, err := DecodeModelResult(strings.NewReader(broken), m); err == nil {
		t.Fatal("corrupted placement not detected")
	}
	// Unknown directive in place of the model line.
	if _, err := DecodeModelResult(strings.NewReader("bogus x\n"+art), m); err == nil {
		t.Fatal("leading garbage not detected")
	}
}

// recordingScheduler is sched.Run that encodes every schedule it
// returns at once — the spill walk rewrites the graph a schedule shares
// before the next round — and tracks the largest II.
type recordingScheduler struct {
	mu        sync.Mutex
	artifacts [][]byte
	maxII     int
}

func (r *recordingScheduler) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	s, err := sched.Run(g, m, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := EncodeSchedule(&buf, s); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.artifacts = append(r.artifacts, buf.Bytes())
	r.maxII = max(r.maxII, s.II)
	r.mu.Unlock()
	return s, nil
}

// TestScheduleCodecIIBound pins maxScheduleII against the schedules the
// scheduler and the spill walk produce: every round of spill walks over
// the kernels and a synthetic corpus — including walks at budgets that
// never fit, which spill everything and then bump the II until they run
// out of rounds — round-trips through the codec, and the largest II
// stays two orders of magnitude below the bound.
func TestScheduleCodecIIBound(t *testing.T) {
	spec := loopgen.Defaults()
	spec.Loops = 100
	synthetic := loopgen.Generate(spec)
	ctx := context.Background()
	sr := &recordingScheduler{}
	// Every eighth kernel also walks a budget no round fits.
	tight := []Cell{{Model: core.Unified, Regs: 2}, {Model: core.Swapped, Regs: 32}}
	axis := []Cell{{Model: core.Unified, Regs: 32}, {Model: core.Partitioned, Regs: 40}, {Model: core.Swapped, Regs: 24}}
	kernels := loops.Kernels()
	bumped := 0
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for i, g := range append(kernels, synthetic...) {
			cells := axis
			if i < len(kernels) && i%8 == 0 {
				cells = tight
			}
			b, err := NewBase(g, m, sched.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, errs := EvaluateCells(ctx, sr, b, cells)
			for k, r := range res {
				if r != nil && r.IIBumps > 0 || errs[k] != nil {
					bumped++
				}
			}
		}
	}
	if bumped == 0 {
		t.Fatal("no walk bumped the II; the test needs the bump path")
	}
	for _, m := range []*machine.Config{machine.Eval(3), machine.Eval(6)} {
		for _, art := range sr.artifacts {
			if !bytes.HasPrefix(art, []byte("machine "+m.Name()+"\n")) {
				continue
			}
			s, err := DecodeSchedule(bytes.NewReader(art), m)
			if err != nil {
				t.Fatalf("a produced schedule does not decode: %v", err)
			}
			var again bytes.Buffer
			if err := EncodeSchedule(&again, s); err != nil || !bytes.Equal(again.Bytes(), art) {
				t.Fatalf("a produced schedule does not round-trip (%v)", err)
			}
		}
	}
	if sr.maxII*100 > maxScheduleII {
		t.Fatalf("largest II %d is within two orders of magnitude of maxScheduleII %d", sr.maxII, maxScheduleII)
	}
	t.Logf("%d schedules, %d walks bumped or ran out of rounds, largest II %d", len(sr.artifacts), bumped, sr.maxII)
}

// FuzzScheduleCodec checks the artifact decoders on arbitrary bytes:
// DecodeSchedule and DecodeModelResult never panic — nor run out of
// memory on a damaged ii line, the committed seeds under
// testdata/fuzz — and whatever either accepts re-encodes to an artifact
// that decodes back to the same bytes. Both agree with the decoders they
// replaced (codec_ref_test.go): the same error text, or the same graph
// encoding, spill-slot marks, schedule and counters. The one exception
// is intended: they reject trailing data, which the old decoders
// ignored. Seeds are the kernels' base schedule artifacts on
// both evaluation machines and their model-result artifacts at a budget
// that spills part of them.
func FuzzScheduleCodec(f *testing.F) {
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6)}
	for _, m := range machines {
		for _, g := range loops.Kernels() {
			b, err := NewBase(g, m, sched.Options{})
			if err != nil {
				f.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeSchedule(&buf, b.Sched); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			if m != machines[1] {
				continue
			}
			for _, model := range core.Models {
				res, err := Evaluate(context.Background(), nil, b, model, 16)
				if err != nil {
					f.Fatal(err)
				}
				var buf bytes.Buffer
				if err := EncodeModelResult(&buf, res); err != nil {
					f.Fatal(err)
				}
				f.Add(buf.Bytes())
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range machines {
			s, err := DecodeSchedule(bytes.NewReader(data), m)
			want, wantErr := refDecodeSchedule(bytes.NewReader(data), m)
			mustMatchRefDecode(t, err, wantErr, func() { mustSameSchedule(t, s, want) })
			if err == nil {
				roundTrip(t, s, EncodeSchedule, func(r io.Reader) (*sched.Schedule, error) { return DecodeSchedule(r, m) })
			}
			res, err := DecodeModelResult(bytes.NewReader(data), m)
			wantRes, wantErr := refDecodeModelResult(bytes.NewReader(data), m)
			mustMatchRefDecode(t, err, wantErr, func() { mustSameModelResult(t, res, wantRes) })
			if err == nil {
				roundTrip(t, res, EncodeModelResult, func(r io.Reader) (*ModelResult, error) { return DecodeModelResult(r, m) })
			}
		}
	})
}

// mustMatchRefDecode requires a decoder's error to be its reference's,
// except that trailing data the reference ignored is rejected, and runs
// same when both accepted.
func mustMatchRefDecode(t *testing.T, err, wantErr error, same func()) {
	t.Helper()
	switch {
	case err != nil && strings.Contains(err.Error(), ": trailing data "):
		if wantErr != nil {
			t.Fatalf("trailing-data error %v where the reference rejects with %v", err, wantErr)
		}
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("decode error %v, reference %v", err, wantErr)
	case err == nil:
		same()
	}
}

// mustSameSchedule requires got to equal want in graph encoding,
// spill-slot marks, machine and placement.
func mustSameSchedule(t *testing.T, got, want *sched.Schedule) {
	t.Helper()
	if canonical(t, got.Graph) != canonical(t, want.Graph) {
		t.Fatalf("decoded graph\n%s\nreference\n%s", canonical(t, got.Graph), canonical(t, want.Graph))
	}
	for id, n := range want.Graph.Nodes() {
		if got.Graph.Node(id).SpillSlot != n.SpillSlot {
			t.Fatalf("node %d spill slot %d, reference %d", id, got.Graph.Node(id).SpillSlot, n.SpillSlot)
		}
	}
	if got.Mach != want.Mach || got.II != want.II || !slices.Equal(got.Start, want.Start) || !slices.Equal(got.FU, want.FU) {
		t.Fatalf("decoded schedule II %d %v %v, reference II %d %v %v", got.II, got.Start, got.FU, want.II, want.Start, want.FU)
	}
}

// mustSameModelResult is mustSameSchedule for model results, counters
// and lifetimes included.
func mustSameModelResult(t *testing.T, got, want *ModelResult) {
	t.Helper()
	mustSameSchedule(t, got.Sched, want.Sched)
	if got.Graph != got.Sched.Graph {
		t.Fatal("decoded result's graph is not its schedule's")
	}
	if got.Model != want.Model || got.SpilledValues != want.SpilledValues || got.SpillStores != want.SpillStores ||
		got.SpillLoads != want.SpillLoads || got.IIBumps != want.IIBumps || got.Iterations != want.Iterations ||
		!slices.Equal(got.Lifetimes, want.Lifetimes) {
		t.Fatalf("decoded result %+v, reference %+v", got, want)
	}
}

// TestCodecRejectsTrailingData: an encoder writes nothing after the last
// op line, so both decoders consume the whole payload and name the first
// extra line. The input is a committed FuzzScheduleCodec seed.
func TestCodecRejectsTrailingData(t *testing.T) {
	m := machine.Eval(3)
	g, ok := loops.KernelByName("daxpy")
	if !ok {
		t.Fatal("missing kernel")
	}
	b, err := NewBase(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(context.Background(), nil, b, core.Unified, 0)
	if err != nil {
		t.Fatal(err)
	}
	const extra = "nonsense here\n"
	for _, c := range []struct {
		art    []byte
		decode func(io.Reader) error
	}{
		{encoded(t, b.Sched, EncodeSchedule), func(r io.Reader) error { _, err := DecodeSchedule(r, m); return err }},
		{encoded(t, res, EncodeModelResult), func(r io.Reader) error { _, err := DecodeModelResult(r, m); return err }},
	} {
		want := fmt.Sprintf("pipeline codec line %d: trailing data %q", bytes.Count(c.art, []byte("\n"))+1, "nonsense here")
		if err := c.decode(bytes.NewReader(append(c.art, extra...))); err == nil || err.Error() != want {
			t.Fatalf("artifact with %q appended: %v, want %s", extra, err, want)
		}
	}
}

// roundTrip encodes a decoded artifact v, decodes that encoding and
// requires the result to encode to the same bytes.
func roundTrip[T any](t *testing.T, v T, encode func(io.Writer, T) error, decode func(io.Reader) (T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := encode(&first, v); err != nil {
		t.Fatalf("decoded %T does not encode: %v", v, err)
	}
	back, err := decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v\n%s", v, err, first.Bytes())
	}
	if err := encode(&second, back); err != nil || !bytes.Equal(second.Bytes(), first.Bytes()) {
		t.Fatalf("%T round trip changed the artifact (%v):\n%s\nthen\n%s", v, err, first.Bytes(), second.Bytes())
	}
}

// encoded returns v's encoding.
func encoded[T any](t *testing.T, v T, encode func(io.Writer, T) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
