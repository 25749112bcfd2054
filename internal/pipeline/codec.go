// Artifact codec: canonical, deterministic text (de)serialization of
// schedules and per-model results, so a compiled loop can be written out
// and read back whole. The persistent artifact store keeps only group
// records (record.go), which hold metrics, not schedules.
//
// The format is line-oriented. A schedule artifact is self-contained: it
// embeds the dependence graph the schedule was computed on (a spilled
// result's graph differs from the caller's input). The embedded graph IS
// the canonical ddg text encoding — the same bytes the store keys
// digest — framed by a byte count, so there is exactly one graph grammar;
// the codec only adds what that encoding lacks (spill-slot marks,
// machine binding, the schedule itself). The machine is resolved by
// reference: the caller passes the *machine.Config the artifact was
// computed on, and the artifact records its name for verification.
//
// Decoding reads the payload in one pass, fields as substrings of it,
// and must consume it whole: bytes after the last op line are an error.
//
// Round-trip guarantee: DecodeModelResult(EncodeModelResult(r)) yields a
// result content-equivalent to r — same canonical graph encoding, same
// spill-slot marks, same II / issue cycles / unit bindings, same spill
// counters, and hence the same lifetimes and register requirements,
// which are recomputed deterministically. Decoded schedules are
// re-verified (sched.Verify), so a damaged artifact decodes to an error,
// never to a plausible-but-wrong schedule.
package pipeline

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/fields"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// maxGraphBytes bounds the framed graph section, so a corrupted length
// field cannot provoke a huge allocation. The store's own checksum makes
// this nearly unreachable; it guards hand-damaged files.
const maxGraphBytes = 8 << 20

// maxScheduleII bounds a decoded schedule's II, so a damaged ii line
// cannot size Schedule.Verify's units × II table past memory or overflow
// it. sched.Run ends its II search at MII + MaxIISlack + nodes, and a
// spill walk bumps the II at most once per round of its 400, so real IIs
// stay in the hundreds (TestScheduleCodecIIBound pins the margin).
const maxScheduleII = 1 << 16

// EncodeSchedule writes s (embedded graph, spill-slot marks, II, issue
// cycles, unit bindings) in the canonical artifact format.
func EncodeSchedule(w io.Writer, s *sched.Schedule) error {
	bw := bufio.NewWriter(w)
	if err := writeSchedule(bw, s); err != nil {
		return err
	}
	return bw.Flush()
}

func writeSchedule(bw *bufio.Writer, s *sched.Schedule) error {
	g := s.Graph
	fmt.Fprintf(bw, "machine %s\n", s.Mach.Name())
	var gbuf bytes.Buffer
	if err := g.Encode(&gbuf); err != nil {
		return err
	}
	fmt.Fprintf(bw, "graph %d\n", gbuf.Len())
	bw.Write(gbuf.Bytes())
	// Spill-slot marks are not part of the canonical graph encoding
	// (they are allocation metadata, not dependence structure), so they
	// ride in their own section: one line per marked node, in ID order.
	marked := 0
	for _, n := range g.Nodes() {
		if n.SpillSlot >= 0 {
			marked++
		}
	}
	fmt.Fprintf(bw, "slots %d\n", marked)
	for _, n := range g.Nodes() {
		if n.SpillSlot >= 0 {
			fmt.Fprintf(bw, "slot %d %d\n", n.ID, n.SpillSlot)
		}
	}
	fmt.Fprintf(bw, "ii %d\n", s.II)
	for id := range s.Start {
		fmt.Fprintf(bw, "op %d %d\n", s.Start[id], s.FU[id])
	}
	return nil
}

// decoder reads an artifact payload line by line, in place: fields are
// substrings of the payload, so reading a line allocates nothing. The
// framed graph section is counted in the line numbers too, so they stay
// meaningful across sections.
type decoder struct {
	text string // the payload
	off  int    // start of the unread rest of text
	line int    // lines read so far
	f    [6]string
}

// newDecoder reads r whole and returns a decoder over it.
func newDecoder(r io.Reader) (*decoder, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pipeline codec: %w", err)
	}
	return &decoder{text: string(data)}, nil
}

// next reads one line holding the directive and nFields fields in all.
// The returned fields are valid until the following call.
func (d *decoder) next(directive string, nFields int) ([]string, error) {
	nl := strings.IndexByte(d.text[d.off:], '\n')
	if nl < 0 {
		return nil, fmt.Errorf("pipeline codec: truncated artifact, want %q at line %d", directive, d.line+1)
	}
	s := d.text[d.off : d.off+nl]
	d.off += nl + 1
	d.line++
	n := fields.Split(s, d.f[:])
	if n != nFields || d.f[0] != directive {
		return nil, fmt.Errorf("pipeline codec line %d: want %d-field %q, got %q", d.line, nFields, directive, s)
	}
	return d.f[:n], nil
}

// end reports the first line of any payload left after the artifact:
// an encoder writes nothing after its last op line, so trailing bytes
// are damage, not data.
func (d *decoder) end() error {
	if d.off == len(d.text) {
		return nil
	}
	s, _, _ := strings.Cut(d.text[d.off:], "\n")
	return fmt.Errorf("pipeline codec line %d: trailing data %q", d.line+1, s)
}

// DecodeSchedule parses one schedule artifact produced by EncodeSchedule
// and rebinds it to m, which must be the configuration the artifact was
// computed on (the store key guarantees it; the embedded machine name is
// verified as a second line of defence). The decoded schedule owns a
// fresh graph and passes sched.Verify before it is returned.
func DecodeSchedule(r io.Reader, m *machine.Config) (*sched.Schedule, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	s, err := d.schedule(m)
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (d *decoder) schedule(m *machine.Config) (*sched.Schedule, error) {
	f, err := d.next("machine", 2)
	if err != nil {
		return nil, err
	}
	if f[1] != m.Name() {
		return nil, fmt.Errorf("pipeline codec: artifact computed on machine %q, want %q", f[1], m.Name())
	}

	if f, err = d.next("graph", 2); err != nil {
		return nil, err
	}
	size, err := strconv.Atoi(f[1])
	if err != nil || size < 0 || size > maxGraphBytes {
		return nil, fmt.Errorf("pipeline codec line %d: bad graph size %q", d.line, f[1])
	}
	if rest := len(d.text) - d.off; rest < size {
		err := io.ErrUnexpectedEOF
		if rest == 0 {
			err = io.EOF
		}
		return nil, fmt.Errorf("pipeline codec: truncated graph section: %v", err)
	}
	section := d.text[d.off : d.off+size]
	d.off += size
	d.line += strings.Count(section, "\n")
	g, err := ddg.DecodeString(section)
	if err != nil {
		return nil, fmt.Errorf("pipeline codec: embedded graph: %v", err)
	}
	if err := d.slots(g); err != nil {
		return nil, err
	}

	if f, err = d.next("ii", 2); err != nil {
		return nil, err
	}
	ii, err := strconv.Atoi(f[1])
	if err != nil {
		return nil, fmt.Errorf("pipeline codec line %d: bad II: %v", d.line, err)
	}
	if ii < 1 || ii > maxScheduleII {
		return nil, fmt.Errorf("pipeline codec line %d: II %d outside [1, %d]", d.line, ii, maxScheduleII)
	}
	s := &sched.Schedule{
		Graph: g,
		Mach:  m,
		II:    ii,
		Start: make([]int, g.NumNodes()),
		FU:    make([]int, g.NumNodes()),
	}
	for id := range s.Start {
		if f, err = d.next("op", 3); err != nil {
			return nil, err
		}
		if s.Start[id], err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad issue cycle: %v", d.line, err)
		}
		if s.FU[id], err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad unit binding: %v", d.line, err)
		}
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("pipeline codec: decoded schedule invalid: %w", err)
	}
	return s, nil
}

// slots reads the spill-slot section and marks g's nodes.
func (d *decoder) slots(g *ddg.Graph) error {
	f, err := d.next("slots", 2)
	if err != nil {
		return err
	}
	marked, err := strconv.Atoi(f[1])
	if err != nil || marked < 0 || marked > g.NumNodes() {
		return fmt.Errorf("pipeline codec line %d: bad slot count %q", d.line, f[1])
	}
	for i := 0; i < marked; i++ {
		if f, err = d.next("slot", 3); err != nil {
			return err
		}
		id, err1 := strconv.Atoi(f[1])
		slot, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || id < 0 || id >= g.NumNodes() || slot < 0 {
			return fmt.Errorf("pipeline codec line %d: bad spill-slot mark", d.line)
		}
		g.Node(id).SpillSlot = slot
	}
	return nil
}

// EncodeModelResult writes r in the canonical artifact format: the model,
// the spill counters, and the final schedule with its embedded graph.
// The lazy requirement measurement is not serialized; it is recomputed
// deterministically on demand after decoding.
func EncodeModelResult(w io.Writer, r *ModelResult) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "model %s\n", r.Model)
	fmt.Fprintf(bw, "spill %d %d %d %d %d\n",
		r.SpilledValues, r.SpillStores, r.SpillLoads, r.IIBumps, r.Iterations)
	// r.Graph and r.Sched.Graph are content-identical by the pipeline's
	// ownership rules (the final schedule is always a schedule OF the
	// final graph, possibly of a copy the spill walk kept), so one
	// embedded graph serves both fields on decode.
	if err := writeSchedule(bw, r.Sched); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeModelResult parses one per-model stage artifact produced by
// EncodeModelResult, rebinding it to m. Lifetimes are recomputed from
// the decoded schedule — they are a deterministic function of it — and
// the result's graph is the schedule's embedded graph.
func DecodeModelResult(r io.Reader, m *machine.Config) (*ModelResult, error) {
	d, err := newDecoder(r)
	if err != nil {
		return nil, err
	}
	f, err := d.next("model", 2)
	if err != nil {
		return nil, err
	}
	model, err := core.ParseModel(f[1])
	if err != nil {
		return nil, fmt.Errorf("pipeline codec line %d: %v", d.line, err)
	}
	if f, err = d.next("spill", 6); err != nil {
		return nil, err
	}
	var counters [5]int
	for i := range counters {
		if counters[i], err = strconv.Atoi(f[i+1]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad spill counter: %v", d.line, err)
		}
	}
	s, err := d.schedule(m)
	if err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return &ModelResult{
		Model:         model,
		Sched:         s,
		Graph:         s.Graph,
		Lifetimes:     lifetime.Compute(s),
		SpilledValues: counters[0],
		SpillStores:   counters[1],
		SpillLoads:    counters[2],
		IIBumps:       counters[3],
		Iterations:    counters[4],
	}, nil
}
