package fields

import (
	"slices"
	"strings"
	"testing"
)

// FuzzSplit pins Split to strings.Fields: the same count, and the same
// fields in every slot f has room for.
func FuzzSplit(f *testing.F) {
	for _, s := range []string{"", "  ", "node x fadd", "\tedge a  b flow 1\r", "loop a trips 3", "a\xffb c", "loop\u00a0a trips 3", "op 1 2 3 4 5 6 7"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		want := strings.Fields(line)
		var buf [4]string
		n := Split(line, buf[:])
		if n != len(want) {
			t.Fatalf("Split(%q) counted %d fields, strings.Fields %d", line, n, len(want))
		}
		if got := buf[:min(n, len(buf))]; !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("Split(%q) = %q, strings.Fields %q", line, got, want)
		}
	})
}

func TestSplitDoesNotAllocate(t *testing.T) {
	var buf [6]string
	if n := testing.AllocsPerRun(100, func() { Split("  edge L1 M3 flow 0\r", buf[:]) }); n != 0 {
		t.Fatalf("Split allocates %.0f times per ASCII line", n)
	}
}
