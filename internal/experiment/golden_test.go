package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/sweep"
)

// TestFigCSVGolden pins the Figure 6/7 CSV output on the curated kernel
// corpus to golden files captured from the pre-sweep-engine pipeline, so
// the cached engine provably preserves the paper's numbers byte for byte.
func TestFigCSVGolden(t *testing.T) {
	st := study(t, loops.Kernels(), CDFPlan())
	for _, lat := range []int{3, 6} {
		for _, dyn := range []bool{false, true} {
			fig := 6
			if dyn {
				fig = 7
			}
			name := fmt.Sprintf("fig%d_kernels_lat%d.csv", fig, lat)
			t.Run(name, func(t *testing.T) {
				res, err := FigCDF(st, lat, dyn)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := res.RenderCSV(&got); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("output drifted from golden %s\ngot:\n%s\nwant:\n%s", name, got.Bytes(), want)
				}
			})
		}
	}
}

// TestPaperPipelineCacheSharing runs the paper's whole pipeline shape
// (Table 1, Figures 6-9, verification) as one plan on one engine and
// pins the exact base-stage count. No stage keeps a base in memory, so
// the sharing is the plan's: one base per (loop, machine) group —
// Table 1's four configurations and the two evaluation machines, whose
// groups serve Figures 6 and 7 and the Figure 8/9 cells in one walk —
// and one per verified loop, shared by its models.
func TestPaperPipelineCacheSharing(t *testing.T) {
	corpus := loops.Kernels()
	eng := testEng()
	plan := Table1Plan()
	plan.Rows = append(plan.Rows, CDFPlan().Rows...)
	plan.Perf = PerfConfigs
	st, err := Run(ctx0, eng, corpus, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Table1(st); err != nil {
		t.Fatal(err)
	}
	for _, lat := range []int{3, 6} {
		if _, err := FigCDF(st, lat, false); err != nil {
			t.Fatal(err)
		}
		if _, err := FigCDF(st, lat, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Fig8and9(st, nil); err != nil {
		t.Fatal(err)
	}
	const stride = 5
	if _, err := VerifySample(ctx0, eng, corpus, machine.Eval(6), 0, 8, stride); err != nil {
		t.Fatal(err)
	}
	n := len(corpus)
	want := uint64(6*n + (n+stride-1)/stride)
	if got := eng.Cache().StageStats().Base; got != (sweep.CacheStats{Misses: want}) {
		t.Fatalf("base stage %+v, want %d requests, all computed", got, want)
	}
	t.Logf("stage stats:\n%s", eng.Cache().StageStats())
}
