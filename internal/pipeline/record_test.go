package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
)

// coldRecord builds the record a cold store holds for one real group —
// syn0001 of the default corpus on the latency-3 evaluation machine,
// whose Unified cell at 16 registers does not converge — the way the
// sweep engine builds it: the requirement row, then every cell of one
// walk, converged or not.
func coldRecord(tb testing.TB) []byte {
	tb.Helper()
	p := loopgen.Defaults()
	p.Loops = 2
	b, err := NewBase(loopgen.Generate(p)[1], machine.Eval(3), sched.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	regs, err := b.Requirements()
	if err != nil {
		tb.Fatal(err)
	}
	rec := Record{Req: Requirement{II: b.Sched.II, Regs: regs}}
	var cells []Cell
	for _, model := range core.Models {
		for _, r := range []int{16, 32, 64} {
			cells = append(cells, Cell{Model: model, Regs: r})
		}
	}
	res, errs := EvaluateCells(context.Background(), nil, b, cells)
	failed := 0
	for i, c := range cells {
		var nc *spill.NotConverged
		switch {
		case errs[i] == nil:
			rec.Put(c, false, Measure(res[i]))
		case errors.As(errs[i], &nc):
			rec.Put(c, true, Metrics{})
			failed++
		default:
			tb.Fatal(errs[i])
		}
	}
	if failed == 0 {
		tb.Fatal("the group has no non-converged cell")
	}
	return AppendRecord(nil, &rec)
}

// TestRecordRejectsNamedDamage: every kind of damage to a real record
// is rejected with its named error, and the record itself round-trips.
func TestRecordRejectsNamedDamage(t *testing.T) {
	data := coldRecord(t)
	rec, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendRecord(nil, &rec); !bytes.Equal(got, data) {
		t.Fatal("the cold record does not re-encode to its bytes")
	}
	if e, ok := rec.Lookup(Cell{Model: core.Ideal, Regs: 64}); !ok || e.Regs != 0 {
		t.Fatalf("Ideal at 64 registers looked up as %+v, %v; want the budget-0 entry", e, ok)
	}
	if _, ok := rec.Lookup(Cell{Model: core.Unified, Regs: 17}); ok {
		t.Fatal("a budget the walk never tested was found")
	}

	const cellBytes = 4 * cellInts
	cells := 4*(1+core.NumModels) + 4 // offset of the first cell
	damage := func(f func(d []byte) []byte) []byte { return f(bytes.Clone(data)) }
	setCount := func(d []byte, n int) { binary.LittleEndian.PutUint32(d[cells-4:], uint32(n)) }
	for _, c := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrRecordTruncated},
		{"truncated", data[:len(data)-1], ErrRecordTruncated},
		{"trailing", append(bytes.Clone(data), 0), ErrRecordTrailing},
		{"bad outcome", damage(func(d []byte) []byte { d[cells+4] = 2; return d }), ErrRecordMalformed},
		{"Ideal at a budget", damage(func(d []byte) []byte { d[cells+8] = 16; return d }), ErrRecordMalformed},
		{"unknown model", damage(func(d []byte) []byte { d[cells] = byte(core.NumModels); return d }), ErrRecordModel},
		{"negative metric", damage(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[cells+12:], 0xffffffff)
			return d
		}), ErrRecordNegative},
		{"negative requirement", damage(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], 0x80000000)
			return d
		}), ErrRecordNegative},
		{"duplicate cell", damage(func(d []byte) []byte {
			setCount(d, len(rec.Cells)+1)
			return append(d, d[len(d)-cellBytes:]...)
		}), ErrRecordDuplicate},
		{"cells out of order", damage(func(d []byte) []byte {
			first := bytes.Clone(d[cells : cells+cellBytes])
			copy(d[cells:], d[cells+cellBytes:cells+2*cellBytes])
			copy(d[cells+cellBytes:], first)
			return d
		}), ErrRecordMalformed},
		{"huge cell count", damage(func(d []byte) []byte { setCount(d, 1<<30); return d }), ErrRecordTruncated},
	} {
		if _, err := DecodeRecord(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzGroupRecord checks the record decoder on arbitrary bytes: it
// never panics, every rejection is one of its named errors, and a
// record it accepts encodes back to the same bytes. The seeds are a
// real cold record with a non-converged cell, and an empty record.
func FuzzGroupRecord(f *testing.F) {
	f.Add(coldRecord(f))
	f.Add(AppendRecord(nil, &Record{}))
	named := []error{ErrRecordTruncated, ErrRecordTrailing, ErrRecordModel, ErrRecordDuplicate, ErrRecordNegative, ErrRecordMalformed}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			for _, n := range named {
				if err == n {
					return
				}
			}
			t.Fatalf("unnamed error %v", err)
		}
		if got := AppendRecord(nil, &rec); !bytes.Equal(got, data) {
			t.Fatalf("accepted record re-encodes to\n%x\nnot\n%x", got, data)
		}
	})
}
