// Artifact codec: canonical, deterministic text (de)serialization of the
// cacheable pipeline artifacts, used by the persistent artifact store
// (internal/store) to carry stage results across processes.
//
// The format is line-oriented and versioned externally: the store stamps
// every artifact with store.FormatVersion, so this codec never needs to
// read old shapes — a format change here must bump that constant.
//
// A schedule artifact is self-contained: it embeds the dependence graph
// the schedule was computed on (a spill round's graph is the walk's
// working graph, which dies with the walk, and a spilled result's graph
// differs from the caller's input), so decoding rebuilds an equivalent
// graph instead of borrowing the caller's. The embedded graph IS the
// canonical ddg text encoding — the same bytes the cache keys digest —
// framed by a byte count, so there is exactly one graph grammar in the
// repository; the codec only adds what that encoding lacks (spill-slot
// marks, machine binding, the schedule itself). Only the machine is
// resolved by reference: the caller passes the *machine.Config the store
// key was derived from, and the artifact records its name for
// verification.
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

// lineReader yields whitespace-split fields line by line with positional
// error context; the framed graph section is read through it too, so
// line numbers stay meaningful across sections.
type lineReader struct {
	r    *bufio.Reader
	line int
}

func (lr *lineReader) next(directive string, nFields int) ([]string, error) {
	s, err := lr.r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("pipeline codec: truncated artifact, want %q at line %d", directive, lr.line+1)
	}
	lr.line++
	f := strings.Fields(s)
	if len(f) != nFields || f[0] != directive {
		return nil, fmt.Errorf("pipeline codec line %d: want %d-field %q, got %q", lr.line, nFields, directive, strings.TrimSuffix(s, "\n"))
	}
	return f, nil
}

// atoi is strconv.Atoi: strict decimal, no trailing garbage — a mangled
// field must decode to an error, never to a plausible number.
func atoi(s string) (int, error) { return strconv.Atoi(s) }

// DecodeSchedule parses one schedule artifact produced by EncodeSchedule
// and rebinds it to m, which must be the configuration the artifact was
// computed on (the store key guarantees it; the embedded machine name is
// verified as a second line of defence). The decoded schedule owns a
// fresh graph and passes sched.Verify before it is returned.
func DecodeSchedule(r io.Reader, m *machine.Config) (*sched.Schedule, error) {
	return decodeSchedule(&lineReader{r: bufio.NewReader(r)}, m)
}

func decodeSchedule(lr *lineReader, m *machine.Config) (*sched.Schedule, error) {
	f, err := lr.next("machine", 2)
	if err != nil {
		return nil, err
	}
	if f[1] != m.Name() {
		return nil, fmt.Errorf("pipeline codec: artifact computed on machine %q, want %q", f[1], m.Name())
	}

	if f, err = lr.next("graph", 2); err != nil {
		return nil, err
	}
	size, err := atoi(f[1])
	if err != nil || size < 0 || size > maxGraphBytes {
		return nil, fmt.Errorf("pipeline codec line %d: bad graph size %q", lr.line, f[1])
	}
	raw := make([]byte, size)
	if _, err := io.ReadFull(lr.r, raw); err != nil {
		return nil, fmt.Errorf("pipeline codec: truncated graph section: %v", err)
	}
	lr.line += bytes.Count(raw, []byte{'\n'})
	g, err := ddg.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pipeline codec: embedded graph: %v", err)
	}

	if f, err = lr.next("slots", 2); err != nil {
		return nil, err
	}
	marked, err := atoi(f[1])
	if err != nil || marked < 0 || marked > g.NumNodes() {
		return nil, fmt.Errorf("pipeline codec line %d: bad slot count %q", lr.line, f[1])
	}
	for i := 0; i < marked; i++ {
		if f, err = lr.next("slot", 3); err != nil {
			return nil, err
		}
		id, err1 := atoi(f[1])
		slot, err2 := atoi(f[2])
		if err1 != nil || err2 != nil || id < 0 || id >= g.NumNodes() || slot < 0 {
			return nil, fmt.Errorf("pipeline codec line %d: bad spill-slot mark", lr.line)
		}
		g.Node(id).SpillSlot = slot
	}

	if f, err = lr.next("ii", 2); err != nil {
		return nil, err
	}
	ii, err := atoi(f[1])
	if err != nil {
		return nil, fmt.Errorf("pipeline codec line %d: bad II: %v", lr.line, err)
	}
	if ii < 1 || ii > maxScheduleII {
		return nil, fmt.Errorf("pipeline codec line %d: II %d outside [1, %d]", lr.line, ii, maxScheduleII)
	}
	s := &sched.Schedule{
		Graph: g,
		Mach:  m,
		II:    ii,
		Start: make([]int, g.NumNodes()),
		FU:    make([]int, g.NumNodes()),
	}
	for id := range s.Start {
		if f, err = lr.next("op", 3); err != nil {
			return nil, err
		}
		if s.Start[id], err = atoi(f[1]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad issue cycle: %v", lr.line, err)
		}
		if s.FU[id], err = atoi(f[2]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad unit binding: %v", lr.line, err)
		}
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("pipeline codec: decoded schedule invalid: %w", err)
	}
	return s, nil
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
	lr := &lineReader{r: bufio.NewReader(r)}

	f, err := lr.next("model", 2)
	if err != nil {
		return nil, err
	}
	model, err := core.ParseModel(f[1])
	if err != nil {
		return nil, fmt.Errorf("pipeline codec line %d: %v", lr.line, err)
	}
	if f, err = lr.next("spill", 6); err != nil {
		return nil, err
	}
	var counters [5]int
	for i := range counters {
		if counters[i], err = atoi(f[i+1]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad spill counter: %v", lr.line, err)
		}
	}
	s, err := decodeSchedule(lr, m)
	if err != nil {
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
