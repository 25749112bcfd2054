package ddg_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
)

// FuzzDDGDecode holds the graph decoder, which reads corpus files and
// the store's model-result artifacts, to three properties: it never
// panics; it agrees with decodeRef, the line-scanner decoder it
// replaced, on every input — the same error text, or graphs with the
// same encoding, names and adjacency; and whatever it accepts
// re-encodes to a fixed point — the encoding of the decoded graph
// decodes to a graph with the same encoding. Seeds are the kernels' and
// the paper example's encodings, a text with a second loop header and
// one whose loop header holds a no-break space.
func FuzzDDGDecode(f *testing.F) {
	for _, g := range append(loops.Kernels(), loops.PaperExample()) {
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add(secondHeader)
	f.Add("loop\u00a0a trips 3\nnode x fadd\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ddg.Decode(strings.NewReader(src))
		mustMatchRef(t, src, g, err)
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

// mustMatchRef requires Decode's outcome on src, g and err, to be
// decodeRef's: the same error text, or graphs with the same encoding,
// the same node behind every name and the same adjacency lists.
func mustMatchRef(t *testing.T, src string, g *ddg.Graph, err error) {
	t.Helper()
	want, wantErr := decodeRef(strings.NewReader(src))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Decode error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return
	}
	var got, ref bytes.Buffer
	if err := g.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("Decode encodes as\n%s\nreference\n%s", got.Bytes(), ref.Bytes())
	}
	for id, n := range want.Nodes() {
		if g.NodeByName(n.Name) != g.Node(id) || g.Node(id).ID != id || g.Node(id).SpillSlot != -1 {
			t.Fatalf("node %d (%s) is not indexed as the reference's", id, n.Name)
		}
		if !slices.Equal(g.OutEdgeIndices(id), want.OutEdgeIndices(id)) || !slices.Equal(g.InEdgeIndices(id), want.InEdgeIndices(id)) {
			t.Fatalf("node %d (%s): adjacency %v/%v, reference %v/%v", id, n.Name,
				g.OutEdgeIndices(id), g.InEdgeIndices(id), want.OutEdgeIndices(id), want.InEdgeIndices(id))
		}
	}
}

// TestDecodeMatchesRefOnLongLines pins the line limit Decode kept from
// the line scanner: a line of 1 MiB or more, carriage return included,
// is bufio.ErrTooLong, after the lines before it are read and wherever
// it ends.
func TestDecodeMatchesRefOnLongLines(t *testing.T) {
	for _, n := range []int{1<<20 - 2, 1<<20 - 1, 1 << 20} {
		long := "#" + strings.Repeat("x", n-1)
		for _, src := range []string{
			"loop a trips 3\n" + long,
			"loop a trips 3\n" + long + "\n",
			"loop a trips 3\n" + long + "\r\nnode x fadd\n",
			"bogus\n" + long + "\n",
		} {
			g, err := ddg.Decode(strings.NewReader(src))
			mustMatchRef(t, src, g, err)
		}
	}
}

// TestDecodeAdjacencyGrows checks that a decoded graph's adjacency
// lists, which share one backing array, grow without overwriting each
// other when edges are added after decoding.
func TestDecodeAdjacencyGrows(t *testing.T) {
	g, err := ddg.DecodeString("loop a trips 3\nnode x load\nnode y fadd\nnode z fmul\nedge x y flow 0\nedge y z flow 0\nedge x z flow 1\n")
	if err != nil {
		t.Fatal(err)
	}
	g.Flow(0, 1)
	g.Flow(1, 2)
	if got := g.OutEdgeIndices(0); !slices.Equal(got, []int{0, 2, 3}) {
		t.Fatalf("out(x) = %v", got)
	}
	if got := g.OutEdgeIndices(1); !slices.Equal(got, []int{1, 4}) {
		t.Fatalf("out(y) = %v", got)
	}
	if got := g.InEdgeIndices(2); !slices.Equal(got, []int{1, 2, 4}) {
		t.Fatalf("in(z) = %v", got)
	}
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
