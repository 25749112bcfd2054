package lir

import (
	"fmt"
	"strconv"
	"strings"
)

// opArity maps mnemonics to the number of value operands they take.
var opArity = map[string]int{
	"fadd": 2, "fsub": 2, "fmul": 2, "fdiv": 2, "conv": 1,
	"load": 0, "store": 1,
}

// directives are the words that open a directive line. No statement
// may use one as its destination or label: Format would write it where
// a re-parse reads a directive.
var directives = map[string]bool{"loop": true, "invariant": true, "mem": true, "store": true}

// ParseError is a source-position-annotated parse failure.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("lir: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Parse reads a complete LIR program from source text.
func Parse(src string) (*Program, error) {
	p := &Program{}
	sawHeader := false
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := stripComment(raw)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "loop":
			if sawHeader {
				return nil, errf(lineNo, "duplicate loop header")
			}
			if len(fields) != 4 || fields[2] != "trips" {
				return nil, errf(lineNo, "want 'loop <name> trips <n>', got %q", line)
			}
			trips, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil || trips < 0 {
				return nil, errf(lineNo, "bad trip count %q", fields[3])
			}
			p.Name, p.Trips = fields[1], trips
			sawHeader = true
		case "invariant":
			if !sawHeader {
				return nil, errf(lineNo, "invariant before loop header")
			}
			if len(fields) < 2 {
				return nil, errf(lineNo, "invariant needs at least one name")
			}
			for _, name := range fields[1:] {
				if !isIdent(name) {
					return nil, errf(lineNo, "bad invariant name %q", name)
				}
			}
			p.Invariants = append(p.Invariants, fields[1:]...)
		case "mem":
			if !sawHeader {
				return nil, errf(lineNo, "mem before loop header")
			}
			if len(fields) != 4 {
				return nil, errf(lineNo, "want 'mem <from> <to> <dist>', got %q", line)
			}
			d, err := strconv.Atoi(fields[3])
			if err != nil || d < 0 {
				return nil, errf(lineNo, "bad mem distance %q", fields[3])
			}
			p.MemDeps = append(p.MemDeps, MemDep{From: fields[1], To: fields[2], Distance: d, Line: lineNo})
		default:
			if !sawHeader {
				return nil, errf(lineNo, "statement before loop header")
			}
			st, err := parseStmt(line, lineNo)
			if err != nil {
				return nil, err
			}
			p.Stmts = append(p.Stmts, st)
		}
	}
	if !sawHeader {
		return nil, errf(0, "missing loop header")
	}
	if len(p.Stmts) == 0 {
		return nil, errf(0, "loop %q has no statements", p.Name)
	}
	return p, nil
}

func stripComment(s string) string {
	for _, marker := range []string{";", "#"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return strings.TrimSpace(s)
}

func parseStmt(line string, lineNo int) (Stmt, error) {
	st := Stmt{Line: lineNo}
	rest := line

	// Optional "label:" prefix. A colon before any '=' is a label.
	if ci := strings.Index(rest, ":"); ci >= 0 {
		eq := strings.Index(rest, "=")
		if eq < 0 || ci < eq {
			st.Label = strings.TrimSpace(rest[:ci])
			if !isIdent(st.Label) || directives[st.Label] {
				return st, errf(lineNo, "bad label %q", st.Label)
			}
			rest = strings.TrimSpace(rest[ci+1:])
		}
	}

	if f := strings.Fields(rest); len(f) > 0 && f[0] == "store" {
		body := strings.TrimSpace(rest[len("store"):])
		parts := splitArgs(body)
		if len(parts) != 2 {
			return st, errf(lineNo, "want 'store <sym>, <operand>', got %q", rest)
		}
		if !isIdent(parts[0]) {
			return st, errf(lineNo, "bad store symbol %q", parts[0])
		}
		op, err := parseOperand(parts[1], lineNo)
		if err != nil {
			return st, err
		}
		st.Op, st.Sym, st.Args = "store", parts[0], []Operand{op}
		return st, nil
	}

	eq := strings.Index(rest, "=")
	if eq < 0 {
		return st, errf(lineNo, "expected assignment or store, got %q", rest)
	}
	st.Dest = strings.TrimSpace(rest[:eq])
	if !isIdent(st.Dest) || directives[st.Dest] {
		return st, errf(lineNo, "bad destination %q", st.Dest)
	}
	rhs := strings.TrimSpace(rest[eq+1:])
	sp := strings.IndexAny(rhs, " \t")
	if sp < 0 {
		return st, errf(lineNo, "missing operands in %q", rest)
	}
	st.Op = rhs[:sp]
	arity, ok := opArity[st.Op]
	if !ok || st.Op == "store" {
		return st, errf(lineNo, "unknown operation %q", st.Op)
	}
	body := strings.TrimSpace(rhs[sp:])
	if st.Op == "load" {
		if !isIdent(body) {
			return st, errf(lineNo, "bad load symbol %q", body)
		}
		st.Sym = body
		return st, nil
	}
	parts := splitArgs(body)
	if len(parts) != arity {
		return st, errf(lineNo, "%s takes %d operand(s), got %d", st.Op, arity, len(parts))
	}
	for _, part := range parts {
		op, err := parseOperand(part, lineNo)
		if err != nil {
			return st, err
		}
		st.Args = append(st.Args, op)
	}
	return st, nil
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseOperand(s string, lineNo int) (Operand, error) {
	if s == "" {
		return Operand{}, errf(lineNo, "empty operand")
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return Operand{Literal: true, Text: s}, nil
	}
	ident, dist := s, 0
	if at := strings.Index(s, "@"); at >= 0 {
		ident = s[:at]
		d, err := strconv.Atoi(s[at+1:])
		if err != nil || d < 1 {
			return Operand{}, errf(lineNo, "bad iteration distance in %q", s)
		}
		dist = d
	}
	if !isIdent(ident) {
		return Operand{}, errf(lineNo, "bad operand %q", s)
	}
	return Operand{Ident: ident, Dist: dist}, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		case r == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
