package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Row is the streaming result record of one evaluated grid cell: the
// cell's identity (loop, machine, model, register budget) plus the
// measured metrics, shaped for NDJSON output — one canonical JSON
// object per line. It is the row format `ncdrf sweep` emits, shard
// output files carry, and `ncdrf merge` splices back together, so its
// encoding must be byte-stable: EncodeRow(DecodeRow(line)) reproduces
// line exactly (pinned by TestRowCodecRoundTrip).
//
// A cell that fails to compile carries its error in Error with the
// metrics zero; Error and the omitempty metrics are mutually exclusive
// in practice but the codec does not enforce it.
type Row struct {
	Loop    string `json:"loop"`
	Machine string `json:"machine"`
	Model   string `json:"model"`
	Regs    int    `json:"regs"`
	II      int    `json:"ii,omitempty"`
	Stages  int    `json:"stages,omitempty"`
	Trips   int64  `json:"trips,omitempty"`
	MemOps  int    `json:"mem_ops,omitempty"`
	Spilled int    `json:"spilled,omitempty"`
	IIBumps int    `json:"ii_bumps,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Fill copies the measured metrics of res into r, leaving the identity
// fields alone. Through Measure it is the one place the row shape meets
// the artifact shape, so a new metric is added to the Row field, the
// Metrics field, Measure and SetMetrics.
func (r *Row) Fill(res *ModelResult) {
	r.SetMetrics(Measure(res))
}

// Metrics is the measured part of a Row as fixed-size integers. It
// holds no pointers, so a streaming executor can keep many finished
// cells' metrics until their rows are emitted without the collector
// scanning them.
type Metrics struct {
	II, Stages, MemOps, Spilled, IIBumps, Rounds int32
}

// Measure returns res's metrics.
func Measure(res *ModelResult) Metrics {
	return Metrics{
		II:      int32(res.Sched.II),
		Stages:  int32(res.Sched.Stages()),
		MemOps:  int32(res.MemOps()),
		Spilled: int32(res.SpilledValues),
		IIBumps: int32(res.IIBumps),
		Rounds:  int32(res.Iterations),
	}
}

// SetMetrics copies m into r's metric fields.
func (r *Row) SetMetrics(m Metrics) {
	r.II = int(m.II)
	r.Stages = int(m.Stages)
	r.MemOps = int(m.MemOps)
	r.Spilled = int(m.Spilled)
	r.IIBumps = int(m.IIBumps)
	r.Rounds = int(m.Rounds)
}

// rowBufs recycles EncodeRow's line buffers, so steady-state row
// encoding allocates nothing.
var rowBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// EncodeRow writes r's canonical single-line encoding: compact JSON in
// struct field order, omitempty metrics left out at zero, terminated by
// a newline — the same bytes json.Encoder produces (pinned by
// TestEncodeRowMatchesJSONEncoder and FuzzRowCodec), so streamed output
// and re-encoded shard rows are interchangeable. The line is built in a
// pooled buffer and reaches w in a single Write, so concurrent emitters
// interleave whole lines, never fragments.
func EncodeRow(w io.Writer, r Row) error {
	bp := rowBufs.Get().(*[]byte)
	buf := appendRow((*bp)[:0], r)
	_, err := w.Write(buf)
	*bp = buf
	rowBufs.Put(bp)
	return err
}

// appendRow appends r's encoding, newline included, to buf.
func appendRow(buf []byte, r Row) []byte {
	buf = append(buf, `{"loop":`...)
	buf = appendString(buf, r.Loop)
	buf = append(buf, `,"machine":`...)
	buf = appendString(buf, r.Machine)
	buf = append(buf, `,"model":`...)
	buf = appendString(buf, r.Model)
	buf = append(buf, `,"regs":`...)
	buf = strconv.AppendInt(buf, int64(r.Regs), 10)
	buf = appendInt(buf, `,"ii":`, int64(r.II))
	buf = appendInt(buf, `,"stages":`, int64(r.Stages))
	buf = appendInt(buf, `,"trips":`, r.Trips)
	buf = appendInt(buf, `,"mem_ops":`, int64(r.MemOps))
	buf = appendInt(buf, `,"spilled":`, int64(r.Spilled))
	buf = appendInt(buf, `,"ii_bumps":`, int64(r.IIBumps))
	buf = appendInt(buf, `,"rounds":`, int64(r.Rounds))
	if r.Error != "" {
		buf = append(buf, `,"error":`...)
		buf = appendString(buf, r.Error)
	}
	return append(buf, "}\n"...)
}

// appendInt appends an omitempty integer field: nothing when v is zero.
func appendInt(buf []byte, key string, v int64) []byte {
	if v == 0 {
		return buf
	}
	return strconv.AppendInt(append(buf, key...), v, 10)
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json would not escape — everything but '"', '\\' and the
// HTML-escaped '<', '>', '&' — is copied as-is; any other string goes
// through json.Marshal, which keeps the control-byte, invalid-UTF-8 and
// U+2028/U+2029 escaping byte-exact.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// DecodeRow parses one NDJSON line into a Row, strictly: unknown
// fields, trailing data and rows without a cell identity are rejected,
// so a shard file assembled from the wrong stream fails loudly at merge
// time instead of producing a silently wrong table.
func DecodeRow(line []byte) (Row, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var r Row
	if err := dec.Decode(&r); err != nil {
		return Row{}, fmt.Errorf("pipeline: bad result row: %w", err)
	}
	if dec.More() {
		return Row{}, fmt.Errorf("pipeline: trailing data after result row")
	}
	if r.Loop == "" || r.Machine == "" || r.Model == "" {
		return Row{}, fmt.Errorf("pipeline: result row missing cell identity: %q", line)
	}
	return r, nil
}
