// Package fields splits one line of the repository's line-oriented text
// formats (the ddg graph encoding, the pipeline artifact codec) into its
// white-space-separated fields without allocating.
package fields

import (
	"strings"
	"unicode/utf8"
)

// asciiSpace holds the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Split stores the fields of line in f, split exactly as strings.Fields
// splits them, and returns how many there are. The count may exceed
// len(f): fields past the end of f are counted, not stored. The stored
// fields are substrings of line. An ASCII line costs no allocation; a
// line with a non-ASCII byte goes through strings.Fields, whose Unicode
// white space the formats have always accepted.
func Split(line string, f []string) int {
	n := 0
	for i := 0; i < len(line); {
		if line[i] >= utf8.RuneSelf {
			return splitUnicode(line, f)
		}
		if asciiSpace[line[i]] {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] < utf8.RuneSelf && !asciiSpace[line[j]] {
			j++
		}
		if j < len(line) && line[j] >= utf8.RuneSelf {
			return splitUnicode(line, f)
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

func splitUnicode(line string, f []string) int {
	all := strings.Fields(line)
	copy(f, all)
	return len(all)
}
