package main

import (
	"bufio"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelImageGolden pins `ncdrf listing` and `ncdrf object` byte for
// byte: every `ncdrf kernels` loop under the unified, partitioned and
// swapped models on the latency-3 and latency-6 evaluation machines and
// on the section 4 example machine. The gzipped golden holds one case per
// `=== <command> <args...>` header followed by that command's stdout;
// it is regenerated with
//
//	for l in $(ncdrf kernels | awk '{print $1}'); do
//	  for mach in "-lat 3" "-lat 6" "-example-machine"; do
//	    for m in unified partitioned swapped; do
//	      for c in listing object; do
//	        echo "=== $c -loop $l -model $m $mach"; ncdrf $c -loop $l -model $m $mach
//	done; done; done; done | gzip -9 -n > testdata/kernel_images.golden.gz
func TestKernelImageGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "kernel_images.golden.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		args []string
		want strings.Builder
	}
	var cases []*golden
	sc := bufio.NewScanner(zr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			cases = append(cases, &golden{args: strings.Fields(rest)})
			continue
		}
		if len(cases) == 0 {
			t.Fatalf("golden text before the first case header: %q", line)
		}
		cases[len(cases)-1].want.WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cases) != 810 {
		t.Fatalf("golden holds %d cases, want 810 (45 loops x 3 models x 3 machines x 2 commands)", len(cases))
	}
	for _, c := range cases {
		run := cmdListing
		if c.args[0] == "object" {
			run = cmdObject
		}
		got := capture(t, func() error { return run(c.args[1:]) })
		if want := c.want.String(); got != want {
			t.Fatalf("ncdrf %s drifted from the golden\ngot:\n%s\nwant:\n%s", strings.Join(c.args, " "), got, want)
		}
	}
}
