package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// goldenRows are representative rows of every shape a sweep emits: a
// spilled cell, an Ideal cell with zero metrics left out, and a failed
// cell carrying its error.
var goldenRows = []Row{
	{Loop: "daxpy", Machine: "eval-L3", Model: "unified", Regs: 32,
		II: 2, Stages: 5, Trips: 100, MemOps: 3, Spilled: 1, IIBumps: 1, Rounds: 4},
	{Loop: "syn0001", Machine: "eval-L6", Model: "ideal", Regs: 0, II: 1, Stages: 13, Trips: 1},
	{Loop: "impossible", Machine: "add-only", Model: "swapped", Regs: 16,
		Error: "sched: no memory port"},
}

// jsonEncoderBytes is the reference encoding EncodeRow must reproduce.
func jsonEncoderBytes(t testing.TB, r Row) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(r); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// TestRowCodecRoundTrip pins the byte-stability contract the shard
// workflow rests on: decode(encode(r)) == r, and re-encoding a decoded
// line reproduces the original bytes — so `ncdrf merge` can re-emit
// parsed rows and still match an unsharded stream byte-for-byte.
func TestRowCodecRoundTrip(t *testing.T) {
	for _, r := range goldenRows {
		var buf bytes.Buffer
		if err := EncodeRow(&buf, r); err != nil {
			t.Fatal(err)
		}
		line := buf.Bytes()
		if line[len(line)-1] != '\n' || bytes.IndexByte(line[:len(line)-1], '\n') >= 0 {
			t.Fatalf("not a single NDJSON line: %q", line)
		}
		got, err := DecodeRow(line)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != r {
			t.Fatalf("round trip changed the row:\n got %+v\nwant %+v", got, r)
		}
		var again bytes.Buffer
		if err := EncodeRow(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), line) {
			t.Fatalf("re-encode not byte-identical:\n got %q\nwant %q", again.Bytes(), line)
		}
	}
}

// TestEncodeRowMatchesJSONEncoder pins the hand-written encoder to the
// exact bytes a fresh json.Encoder produces — compact JSON, HTML-escaped,
// newline-terminated, omitempty zeros left out — including for every
// string the escaper rewrites and every integer sign, so no persisted or
// streamed byte depends on which encoder wrote it.
func TestEncodeRowMatchesJSONEncoder(t *testing.T) {
	rows := append([]Row{
		{Loop: "daxpy", Machine: "eval-L3", Model: "unified", Regs: 32, II: 2},
		{Loop: "a<b>&c", Machine: "m", Model: "ideal", Regs: 0, Error: "x < y & z"},
		{Loop: strings.Repeat("long", 64), Machine: "m", Model: "swapped", Regs: 128, Trips: 1 << 40},
		{Loop: `q"uote`, Machine: `back\slash`, Model: `"\"`, Regs: 1},
		{Loop: "tab\tnl\ncr\r", Machine: "nul\x00bel\x07us\x1f", Model: "del\x7f", Regs: 2},
		{Loop: "bad\xffutf8\xc3", Machine: "\xe2\x80", Model: "m", Regs: 3},
		{Loop: "line\u2028sep\u2029", Machine: "é→中文😀", Model: "ünïcode", Regs: 4},
		{Loop: "neg", Machine: "m", Model: "m", Regs: -1, II: -2, Stages: -3, Trips: -1 << 62,
			MemOps: -4, Spilled: -5, IIBumps: -6, Rounds: -7},
		{Loop: "max", Machine: "m", Model: "m", Regs: math.MaxInt, II: math.MinInt, Trips: math.MaxInt64},
		{},
		{Loop: "err", Machine: "m", Model: "swapped", Regs: 8, II: 3, Error: "spill: regs=8: no convergence <after 64 rounds>"},
	}, goldenRows...)
	for _, r := range rows {
		want := jsonEncoderBytes(t, r)
		var got bytes.Buffer
		if err := EncodeRow(&got, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encoding diverged from json.Encoder:\n got %q\nwant %q", got.Bytes(), want)
		}
	}
}

// FuzzRowCodec checks the row codec on arbitrary input lines: DecodeRow
// never panics; every line it accepts re-encodes to json.Encoder's bytes
// and decodes back to the same row. The raw line bytes also serve as
// string fields, so the encoder meets invalid UTF-8 and every escape.
func FuzzRowCodec(f *testing.F) {
	for _, r := range goldenRows {
		var buf bytes.Buffer
		if err := EncodeRow(&buf, r); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"loop":"a\u2028<b>","machine":"m","model":"ideal","regs":-1,"error":"\u0000"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		raw := Row{Loop: string(line), Machine: "m", Model: "ideal", Error: string(line)}
		var got bytes.Buffer
		if err := EncodeRow(&got, raw); err != nil {
			t.Fatal(err)
		}
		if want := jsonEncoderBytes(t, raw); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("raw-string encoding diverged:\n got %q\nwant %q", got.Bytes(), want)
		}

		r, err := DecodeRow(line)
		if err != nil {
			return
		}
		got.Reset()
		if err := EncodeRow(&got, r); err != nil {
			t.Fatal(err)
		}
		if want := jsonEncoderBytes(t, r); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("encoding diverged:\n got %q\nwant %q", got.Bytes(), want)
		}
		back, err := DecodeRow(got.Bytes())
		if err != nil {
			t.Fatalf("re-encoded row does not decode: %v\n%q", err, got.Bytes())
		}
		if back != r {
			t.Fatalf("round trip changed the row:\n got %+v\nwant %+v", back, r)
		}
	})
}

// TestEncodeRowConcurrent hammers the pool from many goroutines; run
// under -race in CI, it catches any buffer sharing between concurrent
// emitters (each encode must reach the writer as one self-contained
// line).
func TestEncodeRowConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			r := Row{Loop: "loop", Machine: "m", Model: "ideal", Regs: n}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(r); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 200; j++ {
				var got bytes.Buffer
				if err := EncodeRow(&got, r); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("concurrent encode corrupted a row: %q", got.Bytes())
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestEncodeRowAllocs documents the point of the pooled buffer:
// steady-state encoding of a plain-ASCII row allocates nothing, even
// though the sweep emit path writes through an interface that would
// make a non-pooled buffer escape.
func TestEncodeRowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations; the bound only holds un-instrumented")
	}
	r := Row{Loop: "daxpy", Machine: "eval-L3", Model: "unified", Regs: 32, II: 2}
	var sink bytes.Buffer
	per := testing.AllocsPerRun(200, func() {
		sink.Reset()
		if err := EncodeRow(&sink, r); err != nil {
			t.Fatal(err)
		}
	})
	if per > 0 {
		t.Fatalf("row encoder allocates %.1f/row, want 0", per)
	}
}

// TestDecodeRowRejectsForeignLines checks the strictness DecodeRow
// promises: unknown fields, non-JSON, trailing data and identity-less
// rows all fail instead of decaying into zero rows.
func TestDecodeRowRejectsForeignLines(t *testing.T) {
	for _, bad := range []string{
		``,
		`not json`,
		`{"loop":"a","machine":"m","model":"ideal","regs":0,"bogus":1}`,
		`{"loop":"a","machine":"m","model":"ideal","regs":0} trailing`,
		`{"loop":"","machine":"m","model":"ideal","regs":0}`,
		`{"ncdrf_shard":1,"of":3,"units":8,"grid":"x","format":1}`,
	} {
		if _, err := DecodeRow([]byte(bad)); err == nil {
			t.Fatalf("DecodeRow accepted %q", bad)
		}
	}
}

// TestMetricsCoverRowMetrics keeps the compact Metrics record and Row's
// metric fields one list: every Metrics field has a Row field of the
// same name that SetMetrics fills, and every numeric Row field outside
// the cell identity (Regs, Trips) is a Metrics field.
func TestMetricsCoverRowMetrics(t *testing.T) {
	var m Metrics
	mv := reflect.ValueOf(&m).Elem()
	for i := range mv.NumField() {
		mv.Field(i).SetInt(int64(i + 1))
	}
	var r Row
	r.SetMetrics(m)
	rv := reflect.ValueOf(r)
	for i := range mv.NumField() {
		name := mv.Type().Field(i).Name
		f := rv.FieldByName(name)
		if !f.IsValid() || f.Int() != int64(i+1) {
			t.Errorf("Metrics.%s = %d is not copied into Row.%s", name, i+1, name)
		}
	}
	for i := range rv.NumField() {
		f := rv.Type().Field(i)
		if f.Type.Kind() == reflect.String || f.Name == "Regs" || f.Name == "Trips" {
			continue
		}
		if _, ok := mv.Type().FieldByName(f.Name); !ok {
			t.Errorf("Row.%s is a metric with no Metrics field", f.Name)
		}
	}
}
