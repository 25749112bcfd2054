package sweep

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
)

// TestShardPartitionsPlanExactly is the property test of the shard
// planner: for every n, the shards are disjoint, cover Plan() exactly
// and in order, are balanced to within one unit, and are stable across
// calls — `-shard 2/4` names the same cells on every machine.
func TestShardPartitionsPlanExactly(t *testing.T) {
	grid := testGrid()
	plan := grid.Plan()
	for n := 1; n <= len(plan)+1; n++ {
		var joined []Unit
		for i := 1; i <= n; i++ {
			units, err := grid.Shard(i, n)
			if err != nil {
				t.Fatalf("Shard(%d,%d): %v", i, n, err)
			}
			if len(units) < len(plan)/n || len(units) > len(plan)/n+1 {
				t.Fatalf("Shard(%d,%d) unbalanced: %d units of %d", i, n, len(units), len(plan))
			}
			again, _ := grid.Shard(i, n)
			if len(again) != len(units) {
				t.Fatalf("Shard(%d,%d) unstable across calls", i, n)
			}
			for k := range units {
				if units[k] != again[k] {
					t.Fatalf("Shard(%d,%d) unstable at %d: %+v vs %+v", i, n, k, units[k], again[k])
				}
			}
			joined = append(joined, units...)
		}
		if len(joined) != len(plan) {
			t.Fatalf("n=%d: shards join to %d units, plan has %d", n, len(joined), len(plan))
		}
		for k := range plan {
			if joined[k] != plan[k] {
				t.Fatalf("n=%d: joined[%d] = %+v, plan[%d] = %+v", n, k, joined[k], k, plan[k])
			}
		}
	}
	for _, bad := range [][2]int{{0, 3}, {4, 3}, {1, 0}, {-1, 2}} {
		if _, err := grid.Shard(bad[0], bad[1]); err == nil {
			t.Fatalf("Shard(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

// TestPlanDigestDistinguishesGrids checks the merge-compatibility
// digest: identical grids agree, and changing the corpus content, the
// machine set or the cell list changes the digest.
func TestPlanDigestDistinguishesGrids(t *testing.T) {
	a, b := testGrid(), testGrid()
	if a.PlanDigest() != b.PlanDigest() {
		t.Fatal("identical grids digest differently")
	}
	b.Regs = []int{32}
	if a.PlanDigest() == b.PlanDigest() {
		t.Fatal("cell list not in digest")
	}
	c := testGrid()
	c.Machines = c.Machines[:1]
	if a.PlanDigest() == c.PlanDigest() {
		t.Fatal("machine set not in digest")
	}
	d := testGrid()
	d.Corpus = loops.Kernels()[1:5]
	if a.PlanDigest() == d.PlanDigest() {
		t.Fatal("corpus content not in digest")
	}
}

// TestSweepEmitsInPlanOrder pins the determinism contract the shard
// workflow depends on: emit follows plan order even with a concurrent
// pool, so two runs of the same grid produce byte-identical streams.
func TestSweepEmitsInPlanOrder(t *testing.T) {
	eng := New(8)
	grid := testGrid()
	plan := grid.Plan()
	var got []Result
	if err := eng.Sweep(context.Background(), grid, func(r Result) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plan) {
		t.Fatalf("emitted %d results, want %d", len(got), len(plan))
	}
	for k, u := range plan {
		want := Result{
			Loop:    grid.Corpus[u.Loop].LoopName,
			Machine: grid.Machines[u.Machine].Name(),
			Model:   u.Model.String(),
			Regs:    u.Regs,
		}
		r := got[k]
		if r.Loop != want.Loop || r.Machine != want.Machine || r.Model != want.Model || r.Regs != want.Regs {
			t.Fatalf("emit %d out of plan order: got %s/%s/%s/%d, want %s/%s/%s/%d",
				k, r.Loop, r.Machine, r.Model, r.Regs, want.Loop, want.Machine, want.Model, want.Regs)
		}
	}
}

// runShard produces one shard output file in memory, the way
// `ncdrf sweep -shard i/n -o file` does: header line, then rows.
func runShard(t testing.TB, eng *Engine, grid Grid, i, n int) []byte {
	t.Helper()
	units, err := grid.Shard(i, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	h := ShardHeader{Shard: i, Of: n, Units: len(units), Grid: grid.PlanDigest(), Format: ShardFormatVersion}
	if err := WriteShardHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	if err := eng.SweepUnits(context.Background(), grid, units, func(chunk []byte, _ int) {
		buf.Write(chunk)
	}, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestThreeShardsMergeGolden is the engine-level acceptance test: three
// shards, run on three independent engines, merge into the
// byte-identical stream of an unsharded run of the same grid — in any
// merge-argument order.
func TestThreeShardsMergeGolden(t *testing.T) {
	grid := testGrid()

	var single bytes.Buffer
	if err := New(4).Sweep(context.Background(), grid, func(r Result) {
		if err := pipeline.EncodeRow(&single, r); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	var files []ShardFile
	for i := 1; i <= 3; i++ {
		raw := runShard(t, New(4), grid, i, 3)
		f, err := ReadShardFile(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		files = append(files, f)
	}
	// Any argument order merges the same.
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		var merged bytes.Buffer
		shuffled := []ShardFile{files[order[0]], files[order[1]], files[order[2]]}
		if err := MergeShards(&merged, shuffled); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged.Bytes(), single.Bytes()) {
			t.Fatalf("merged stream differs from unsharded run:\nmerged:\n%s\nsingle:\n%s",
				merged.String(), single.String())
		}
	}
}

// FuzzShardFile holds ReadShardFile, which reads the files `ncdrf
// merge` is handed, to two properties: it never panics, and whatever it
// accepts, written back through WriteShardHeader and EncodeRow, reads
// back to an equal ShardFile. Seeds are a real 3-shard split of a
// kernels grid, a truncated shard and an over-long one; testdata/fuzz
// holds the minimized crashers.
func FuzzShardFile(f *testing.F) {
	var shards [][]byte
	for i := 1; i <= 3; i++ {
		shards = append(shards, runShard(f, New(2), testGrid(), i, 3))
		f.Add(shards[i-1])
	}
	one, two := shards[0], shards[1]
	f.Add(one[:bytes.LastIndexByte(one[:len(one)-1], '\n')+1])
	f.Add(append(slices.Clone(one), two[bytes.IndexByte(two, '\n')+1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ReadShardFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteShardHeader(&buf, sf.Header); err != nil {
			t.Fatal(err)
		}
		for _, r := range sf.Rows {
			if err := pipeline.EncodeRow(&buf, r); err != nil {
				t.Fatal(err)
			}
		}
		back, err := ReadShardFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading the write-back of an accepted file: %v\n%s", err, buf.Bytes())
		}
		if back.Header != sf.Header || !slices.Equal(back.Rows, sf.Rows) {
			t.Fatalf("write-back changed the file:\n got %+v\nwant %+v", back, sf)
		}
	})
}

// TestMergeRejectsBadShardSets covers the validation surface: missing,
// duplicated, cross-grid and truncated shards are all refused.
func TestMergeRejectsBadShardSets(t *testing.T) {
	grid := testGrid()
	eng := New(2)
	var files []ShardFile
	for i := 1; i <= 2; i++ {
		f, err := ReadShardFile(bytes.NewReader(runShard(t, eng, grid, i, 2)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	var sink bytes.Buffer
	if err := MergeShards(&sink, files[:1]); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("incomplete set accepted: %v", err)
	}
	if err := MergeShards(&sink, []ShardFile{files[0], files[0]}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate shard accepted: %v", err)
	}
	other := files[1]
	other.Header.Grid = "deadbeef"
	if err := MergeShards(&sink, []ShardFile{files[0], other}); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("cross-grid shard accepted: %v", err)
	}

	raw := runShard(t, eng, grid, 1, 2)
	truncated := raw[:bytes.LastIndexByte(raw[:len(raw)-1], '\n')+1]
	if _, err := ReadShardFile(bytes.NewReader(truncated)); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("truncated shard accepted: %v", err)
	}
	if _, err := ReadShardFile(strings.NewReader("")); err == nil {
		t.Fatal("empty file accepted")
	}
	if _, err := ReadShardFile(strings.NewReader(`{"loop":"x","machine":"m","model":"ideal","regs":0}` + "\n")); err == nil {
		t.Fatal("headerless row stream accepted as shard file")
	}
	bad := ShardHeader{Shard: 1, Of: 1, Units: 0, Grid: "g", Format: ShardFormatVersion + 1}
	var hdr bytes.Buffer
	if err := WriteShardHeader(&hdr, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardFile(&hdr); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("future-format shard accepted: %v", err)
	}
}

// TestShardsShareStoreAcrossEngines is the resumability contract: two
// shards of one grid run as separate engines (processes, in real use)
// over one artifact directory. The shards cut groups, so the second
// shard finds records the first one wrote with part of a group's cells
// and rewrites them with the union: an unsharded engine over the same
// directory then computes nothing, builds no base and emits the
// store-less rows.
func TestShardsShareStoreAcrossEngines(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels()[:5],
		Machines: []*machine.Config{machine.Eval(3)},
		Models:   []core.Model{core.Unified, core.Swapped},
		Regs:     []int{16, 64},
	}
	ctx := context.Background()
	dir := t.TempDir()
	cut := false
	for i := 1; i <= 2; i++ {
		units, err := grid.Shard(i, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range GroupUnits(units) {
			cut = cut || len(g.Units) < len(grid.Models)*len(grid.Regs)
		}
		if err := storeEng(t, 2, dir).SweepUnits(ctx, grid, units, func([]byte, int) {}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !cut {
		t.Fatal("no shard cut a group; the test needs partial records")
	}
	want, err := New(2).Rows(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	eng := storeEng(t, 2, dir)
	got, err := eng.Rows(ctx, grid)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Cache().StageStats(); st.Eval.Misses != 0 || st.Base.Requests() != 0 {
		t.Fatalf("unsharded rerun over the shards' store: %+v; want every cell from disk and no base", st)
	}
	if !slices.Equal(got, want) {
		t.Fatal("rows served from the shards' records differ from the store-less rows")
	}
}
