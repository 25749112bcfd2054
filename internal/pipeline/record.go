package pipeline

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"ncdrf/internal/core"
)

// Requirement is a group's unlimited-register requirement row: the II
// of its base schedule and each model's register count (per subfile for
// the dual organizations), indexed by core.Model; Ideal's is 0.
type Requirement struct {
	II   int
	Regs [core.NumModels]int
}

// Record is the persisted outcome of one (loop, machine, options)
// group: everything the paper's exhibits read from it. Table 1, Figures
// 6/7 and the cluster study read the requirement row; Figures 8/9 and
// the curves read each (model, budget) cell's metrics. A record holds
// no schedule or graph, so reading one parses no loop.
type Record struct {
	// Req is the group's requirement row, or zero (II 0) when none was
	// computed.
	Req Requirement
	// Cells are the group's evaluated cells in canonical order: by
	// model, then budget, each (model, budget) at most once.
	Cells []RecordCell
}

// RecordCell is one evaluated cell of a group record: its model, its
// canonical budget (Ideal's and every unlimited budget are 0), and
// either its metrics or, when NotConverged is set, the spill walk's
// non-convergence, with zero metrics. No other failure is recorded.
type RecordCell struct {
	Model        core.Model
	Regs         int
	NotConverged bool
	Metrics      Metrics
}

func compareCells(a, b RecordCell) int {
	return cmp.Or(cmp.Compare(a.Model, b.Model), cmp.Compare(a.Regs, b.Regs))
}

// find locates c's entry in r.Cells, or the index it belongs at.
func (r *Record) find(c Cell) (RecordCell, int, bool) {
	e := RecordCell{Model: c.Model, Regs: c.Regs}
	if c.Model == core.Ideal || c.Regs < 0 {
		e.Regs = 0
	}
	i, ok := slices.BinarySearchFunc(r.Cells, e, compareCells)
	return e, i, ok
}

// Lookup returns the recorded entry of c, if any.
func (r *Record) Lookup(c Cell) (RecordCell, bool) {
	if _, i, ok := r.find(c); ok {
		return r.Cells[i], true
	}
	return RecordCell{}, false
}

// Put records the outcome of c, keeping Cells in canonical order; a
// cell already recorded is replaced. A budget beyond the int32 range
// of the encoding is not recorded.
func (r *Record) Put(c Cell, notConverged bool, m Metrics) {
	e, i, ok := r.find(c)
	e.NotConverged, e.Metrics = notConverged, m
	if e.Regs > math.MaxInt32 {
		return
	}
	if ok {
		r.Cells[i] = e
	} else {
		r.Cells = slices.Insert(r.Cells, i, e)
	}
}

// The record decoder's named errors.
var (
	ErrRecordTruncated = errors.New("pipeline: group record truncated")
	ErrRecordTrailing  = errors.New("pipeline: trailing data after group record")
	ErrRecordModel     = errors.New("pipeline: group record cell of an unknown model")
	ErrRecordDuplicate = errors.New("pipeline: group record repeats a cell")
	ErrRecordNegative  = errors.New("pipeline: group record holds a negative value")
	ErrRecordMalformed = errors.New("pipeline: malformed group record")
)

// A record is a sequence of little-endian int32s: the requirement row's
// II and one register count per model, then a cell count and that many
// cells of cellInts values each — model, outcome (0 metrics, 1 not
// converged), canonical budget and the six metrics.
const cellInts = 3 + 6

func (m *Metrics) fields() [6]*int32 {
	return [6]*int32{&m.II, &m.Stages, &m.MemOps, &m.Spilled, &m.IIBumps, &m.Rounds}
}

// AppendRecord appends r's encoding to dst.
func AppendRecord(dst []byte, r *Record) []byte {
	put := func(v int) { dst = binary.LittleEndian.AppendUint32(dst, uint32(v)) }
	put(r.Req.II)
	for _, n := range r.Req.Regs {
		put(n)
	}
	put(len(r.Cells))
	for _, e := range r.Cells {
		outcome := 0
		if e.NotConverged {
			outcome = 1
		}
		put(int(e.Model))
		put(outcome)
		put(e.Regs)
		for _, v := range e.Metrics.fields() {
			put(int(*v))
		}
	}
	return dst
}

// DecodeRecord parses a record AppendRecord wrote. It accepts exactly
// the canonical encodings, so an accepted record encodes back to the
// same bytes: cells in strictly increasing (model, budget) order, Ideal
// cells at budget 0, no negative value, and a non-converged cell with
// zero metrics. Every rejection is one of the named errors.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	var err error
	off := 0
	next := func() int {
		if off+4 > len(data) {
			err = cmp.Or(err, ErrRecordTruncated)
			return 0
		}
		v := int32(binary.LittleEndian.Uint32(data[off:]))
		if off += 4; v < 0 {
			err = cmp.Or(err, ErrRecordNegative)
		}
		return int(v)
	}
	r.Req.II = next()
	for i := range r.Req.Regs {
		r.Req.Regs[i] = next()
	}
	n := next()
	if err == nil && n > (len(data)-off)/(4*cellInts) {
		err = ErrRecordTruncated
	}
	if err != nil {
		return Record{}, err
	}
	r.Cells = make([]RecordCell, n)
	for i := range r.Cells {
		e := &r.Cells[i]
		model, outcome := next(), next()
		e.Model, e.NotConverged, e.Regs = core.Model(model), outcome == 1, next()
		for _, v := range e.Metrics.fields() {
			*v = int32(next())
		}
		switch {
		case err != nil:
			return Record{}, err
		case model >= core.NumModels:
			return Record{}, ErrRecordModel
		case outcome > 1, e.NotConverged && e.Metrics != Metrics{}, e.Model == core.Ideal && e.Regs != 0:
			return Record{}, ErrRecordMalformed
		case i > 0 && compareCells(r.Cells[i-1], *e) == 0:
			return Record{}, ErrRecordDuplicate
		case i > 0 && compareCells(r.Cells[i-1], *e) > 0:
			return Record{}, ErrRecordMalformed
		}
	}
	if off != len(data) {
		return Record{}, ErrRecordTrailing
	}
	return r, nil
}
