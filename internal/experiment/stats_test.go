package experiment

import (
	"bytes"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
)

func TestStatsOnPaperExample(t *testing.T) {
	st := Stats([]*ddg.Graph{loops.PaperExample()})
	if st.Loops != 1 || st.Ops != 7 {
		t.Fatalf("loops/ops = %d/%d", st.Loops, st.Ops)
	}
	if st.Loads != 2 || st.Stores != 1 || st.Arith != 4 {
		t.Fatalf("mix = %d/%d/%d", st.Loads, st.Stores, st.Arith)
	}
	// Values: L1 read twice (M3, A6); L2, M3, A4, M5, A6 read once.
	if st.Values != 6 || st.SingleUse != 5 || st.MultiUse != 1 || st.Dead != 0 {
		t.Fatalf("reads = %d/%d/%d/%d", st.Values, st.SingleUse, st.MultiUse, st.Dead)
	}
	if got := st.SingleUseFrac(); got < 0.83 || got > 0.84 {
		t.Fatalf("single-use fraction = %v, want 5/6", got)
	}
	if st.RecurrentLoops != 0 {
		t.Fatal("paper example has no recurrences")
	}
	if st.SizeP50 != 7 || st.SizeMax != 7 {
		t.Fatalf("size percentiles = %d/%d", st.SizeP50, st.SizeMax)
	}
}

func TestStatsSingleUseDominatesCorpus(t *testing.T) {
	// The section 3.3 premise: most register instances are read once.
	st := Stats(smallCorpus())
	if frac := st.SingleUseFrac(); frac < 0.55 {
		t.Fatalf("single-use fraction = %.2f; the corpus no longer supports the paper's premise", frac)
	}
	var buf bytes.Buffer
	if err := st.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Corpus statistics", "read exactly once", "recurrences"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestStatsEmptyValues(t *testing.T) {
	g := ddg.New("dead", 1)
	g.AddNode(ddg.FMUL, "M")
	st := Stats([]*ddg.Graph{g})
	if st.Dead != 1 || st.SingleUseFrac() != 0 {
		t.Fatalf("dead handling wrong: %+v", st)
	}
}

func TestClusterScaling(t *testing.T) {
	corpus := smallCorpus()[:20]
	res, err := ClusterScaling(study(t, corpus, ClusterPlan(6, []int{1, 2})), 6, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	one, two := res.Rows[0], res.Rows[1]
	// With a single cluster everything is local: partitioned == unified.
	if one.AvgRegs[core.Partitioned] != one.AvgRegs[core.Unified] {
		t.Fatalf("1-cluster partitioned %v != unified %v",
			one.AvgRegs[core.Partitioned], one.AvgRegs[core.Unified])
	}
	// Two clusters halve (or better) nothing exactly, but must help on
	// average and II must not increase with more resources.
	if two.AvgRegs[core.Partitioned] >= two.AvgRegs[core.Unified] {
		t.Fatalf("2-cluster partitioned %v !< unified %v",
			two.AvgRegs[core.Partitioned], two.AvgRegs[core.Unified])
	}
	if two.AvgII > one.AvgII {
		t.Fatalf("II grew with more clusters: %v -> %v", one.AvgII, two.AvgII)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cluster scaling") {
		t.Fatal("render missing title")
	}
}

func TestEvalN(t *testing.T) {
	m := EvalN(4, 3)
	if m.NumClusters() != 4 || m.NumUnits() != 12 {
		t.Fatalf("EvalN shape: %s", m)
	}
	if m.Latency(0) != 3 {
		t.Fatal("latency wrong")
	}
}

func TestFigP90Summary(t *testing.T) {
	res, err := FigCDF(study(t, smallCorpus(), CDFPlan()), 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.P90[core.Unified] < res.P90[core.Partitioned] {
		t.Fatalf("p90 unified %d < partitioned %d", res.P90[core.Unified], res.P90[core.Partitioned])
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "p90") {
		t.Fatal("render missing p90 summary")
	}
}
