package pipeline

// The artifact decoders as they were before they read the payload in
// one pass: a bufio.Reader, ReadString and strings.Fields per line, a
// fresh graph from ddg.Decode (which FuzzDDGDecode holds to its own
// reference) for every artifact. FuzzScheduleCodec holds DecodeSchedule
// and DecodeModelResult to them.

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

// refLineReader yields whitespace-split fields line by line with positional
// error context; the framed graph section is read through it too, so
// line numbers stay meaningful across sections.
type refLineReader struct {
	r    *bufio.Reader
	line int
}

func (lr *refLineReader) next(directive string, nFields int) ([]string, error) {
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

// refAtoi is strconv.Atoi: strict decimal, no trailing garbage — a mangled
// field must decode to an error, never to a plausible number.
func refAtoi(s string) (int, error) { return strconv.Atoi(s) }

// refDecodeSchedule parses one schedule artifact produced by EncodeSchedule
// and rebinds it to m, which must be the configuration the artifact was
// computed on (the store key guarantees it; the embedded machine name is
// verified as a second line of defence). The decoded schedule owns a
// fresh graph and passes sched.Verify before it is returned.
func refDecodeSchedule(r io.Reader, m *machine.Config) (*sched.Schedule, error) {
	return refDecodeScheduleLR(&refLineReader{r: bufio.NewReader(r)}, m)
}

func refDecodeScheduleLR(lr *refLineReader, m *machine.Config) (*sched.Schedule, error) {
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
	size, err := refAtoi(f[1])
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
	marked, err := refAtoi(f[1])
	if err != nil || marked < 0 || marked > g.NumNodes() {
		return nil, fmt.Errorf("pipeline codec line %d: bad slot count %q", lr.line, f[1])
	}
	for i := 0; i < marked; i++ {
		if f, err = lr.next("slot", 3); err != nil {
			return nil, err
		}
		id, err1 := refAtoi(f[1])
		slot, err2 := refAtoi(f[2])
		if err1 != nil || err2 != nil || id < 0 || id >= g.NumNodes() || slot < 0 {
			return nil, fmt.Errorf("pipeline codec line %d: bad spill-slot mark", lr.line)
		}
		g.Node(id).SpillSlot = slot
	}

	if f, err = lr.next("ii", 2); err != nil {
		return nil, err
	}
	ii, err := refAtoi(f[1])
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
		if s.Start[id], err = refAtoi(f[1]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad issue cycle: %v", lr.line, err)
		}
		if s.FU[id], err = refAtoi(f[2]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad unit binding: %v", lr.line, err)
		}
	}
	if err := s.Verify(); err != nil {
		return nil, fmt.Errorf("pipeline codec: decoded schedule invalid: %w", err)
	}
	return s, nil
}

// refDecodeModelResult parses one per-model stage artifact produced by
// EncodeModelResult, rebinding it to m. Lifetimes are recomputed from
// the decoded schedule — they are a deterministic function of it — and
// the result's graph is the schedule's embedded graph.
func refDecodeModelResult(r io.Reader, m *machine.Config) (*ModelResult, error) {
	lr := &refLineReader{r: bufio.NewReader(r)}

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
		if counters[i], err = refAtoi(f[i+1]); err != nil {
			return nil, fmt.Errorf("pipeline codec line %d: bad spill counter: %v", lr.line, err)
		}
	}
	s, err := refDecodeScheduleLR(lr, m)
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
