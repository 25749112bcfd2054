package ddg_test

import (
	"bytes"
	"strings"
	"testing"

	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
)

// FuzzDDGDecode holds the graph decoder, which reads corpus files and
// the store's model-result artifacts, to two properties: it never
// panics, and whatever it accepts re-encodes to a fixed point — the
// encoding of the decoded graph decodes to a graph with the same
// encoding. Seeds are the kernels' and the paper example's encodings
// and a text with a second loop header.
func FuzzDDGDecode(f *testing.F) {
	for _, g := range append(loops.Kernels(), loops.PaperExample()) {
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(secondHeader)
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ddg.Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := g.Encode(&once); err != nil {
			t.Fatal(err)
		}
		back, err := ddg.Decode(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding the encoding of an accepted graph: %v\n%s", err, once.Bytes())
		}
		if err := back.Encode(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encoding is not a fixed point:\n%s\nthen:\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// secondHeader is a text with two loop headers, whose last edge names
// a node of the first loop.
const secondHeader = "loop a trips 3\nnode x fadd\nloop b trips 2\nnode y fmul\nedge x y flow 1\n"

// TestDecodeRejectsSecondLoopHeader: Decode parses one graph, so a
// second loop header is an error. Accepting it would resolve the later
// edges against the first loop's names — here, decoding to loop b with
// a self-edge y→y that no line of the text describes.
func TestDecodeRejectsSecondLoopHeader(t *testing.T) {
	g, err := ddg.Decode(strings.NewReader(secondHeader))
	if err == nil || !strings.Contains(err.Error(), "duplicate loop header") {
		t.Fatalf("Decode = %v, %v; want a duplicate loop header error", g, err)
	}
}
