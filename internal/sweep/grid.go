package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
)

// Grid describes a sweep: the cross product of loops, machines, models
// and register-file sizes.
type Grid struct {
	Corpus   []*ddg.Graph
	Machines []*machine.Config
	Models   []core.Model
	Regs     []int
}

// Unit is one deduplicated work item of a planned grid: indices into the
// grid's corpus/machines plus the concrete model and register count.
type Unit struct {
	Loop    int
	Machine int
	Model   core.Model
	Regs    int
}

// Validate rejects a grid with an empty axis. Such a grid plans zero
// units, so a sweep over it would emit nothing while appearing to
// succeed — the classic silently-empty result file. The error names the
// empty axis. An empty Regs axis is deliberately not an error: Plan
// documents it as one unlimited register file.
func (g Grid) Validate() error {
	switch {
	case len(g.Corpus) == 0:
		return fmt.Errorf("sweep: empty grid axis Corpus: no loops to evaluate")
	case len(g.Machines) == 0:
		return fmt.Errorf("sweep: empty grid axis Machines: no machine configurations")
	case len(g.Models) == 0:
		return fmt.Errorf("sweep: empty grid axis Models: no register-file models")
	}
	return nil
}

// Plan expands the grid into work units, dropping duplicate cells:
// repeated register sizes and models, and machines with the same name
// (same name = same config, the cache contract). Each axis keeps its
// first occurrences, and since loop indices are unique that drops
// exactly the repeated cells. Distinct cells whose computations
// coincide (e.g. the Ideal model at every register size) are kept —
// each requested cell gets its own Result row — and the group walk
// shares the work. Units are ordered machine-major, then model, then
// size, then loop — the order the paper's tables enumerate.
func (g Grid) Plan() []Unit {
	regs := g.Regs
	if len(regs) == 0 {
		regs = []int{0}
	}
	var machines []int
	names := make(map[string]bool, len(g.Machines))
	for mi, m := range g.Machines {
		if !names[m.Name()] {
			names[m.Name()] = true
			machines = append(machines, mi)
		}
	}
	models := firstOccurrences(g.Models)
	regs = firstOccurrences(regs)
	units := make([]Unit, 0, len(machines)*len(models)*len(regs)*len(g.Corpus))
	for _, mi := range machines {
		for _, model := range models {
			for _, r := range regs {
				for li := range g.Corpus {
					units = append(units, Unit{Loop: li, Machine: mi, Model: model, Regs: r})
				}
			}
		}
	}
	return units
}

// firstOccurrences returns the values of axis in order, each at its
// first occurrence only.
func firstOccurrences[T comparable](axis []T) []T {
	seen := make(map[T]bool, len(axis))
	var out []T
	for _, v := range axis {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Shard returns the i-th of n contiguous, balanced partitions of
// Plan(), 1-based: `-shard 2/4` means the same cells on every machine.
// Shards are disjoint, cover the plan exactly, and concatenating shards
// 1..n in order reproduces Plan() — which is why `ncdrf merge` can
// splice shard outputs back into the single-run stream byte-for-byte.
// Contiguity also makes sequential shards cooperate through a shared
// artifact store: the plan revisits each (loop, machine) pair once per
// (model, regs) combination, so shard k+1's base schedules are largely
// shard k's disk hits.
func (g Grid) Shard(i, n int) ([]Unit, error) {
	return ShardOf(g.Plan(), i, n)
}

// ShardOf is Shard over an already-expanded plan, so a caller that also
// needs the units (or the plan digest) expands the grid exactly once
// per invocation instead of once per consumer.
func ShardOf(units []Unit, i, n int) ([]Unit, error) {
	if n < 1 || i < 1 || i > n {
		return nil, fmt.Errorf("sweep: shard %d/%d out of range (want 1 <= i <= n)", i, n)
	}
	q, r := len(units)/n, len(units)%n
	lo := (i-1)*q + min(i-1, r)
	hi := lo + q
	if i <= r {
		hi++
	}
	return units[lo:hi], nil
}

// PlanDigest identifies the planned grid for shard-file validation: a
// short hex digest over every planned cell — loop content (the same
// canonical encoding the cache keys digest), machine name, model and
// register budget, in plan order. Two grids merge-compatibly iff their
// digests match; a shard produced from a different corpus, seed or flag
// set is rejected by `ncdrf merge` instead of being silently spliced in.
func (g Grid) PlanDigest() string {
	return g.PlanDigestOf(g.Plan())
}

// PlanDigestOf is PlanDigest over an already-expanded full plan; see
// ShardOf for why callers pass the units through.
func (g Grid) PlanDigestOf(units []Unit) string {
	loopSums := map[int][sha256.Size]byte{}
	h := sha256.New()
	fmt.Fprintf(h, "plan %d\n", len(units))
	for _, u := range units {
		sum, ok := loopSums[u.Loop]
		if !ok {
			sum = sha256.Sum256(appendEncoding(nil, g.Corpus[u.Loop]))
			loopSums[u.Loop] = sum
		}
		h.Write(sum[:])
		fmt.Fprintf(h, "\x00%s\x00%s\x00%d\n", g.Machines[u.Machine].Name(), u.Model, u.Regs)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Group is one base-major execution unit of a plan: every planned unit
// sharing one (loop, machine) pair. One pipeline.Base serves the whole
// group — the base schedule and lifetimes are computed once, and the
// group's (model × regs) fan-out starts from the shared artifact.
type Group struct {
	// Loop and Machine index the grid's Corpus and Machines.
	Loop, Machine int
	// Units holds the indices (into the grouped unit list) of the
	// group's members, in that list's order.
	Units []int
}

// Groups partitions the grid's plan into base-major groups; see
// GroupUnits for the grouping contract.
func (g Grid) Groups() []Group { return GroupUnits(g.Plan()) }

// GroupUnits partitions a unit list — a whole plan or one shard of it —
// into base-major groups keyed by (loop, machine), ordered by first
// appearance. A shard of a plan yields partial groups: only the shard's
// own units, which is exactly what keeps Grid.Shard's contract intact
// (each shard emits its slice of the plan, base sharing included).
func GroupUnits(units []Unit) []Group {
	loops, machines := 0, 0
	for _, u := range units {
		loops, machines = max(loops, u.Loop+1), max(machines, u.Machine+1)
	}
	// A (loop, machine) slot holds its unit count until its group exists,
	// then -1 - the group's index; each Units is a window of one array.
	slot := make([]int, loops*machines)
	for _, u := range units {
		slot[u.Loop*machines+u.Machine]++
	}
	flat := make([]int, len(units))
	var groups []Group
	for i, u := range units {
		s := &slot[u.Loop*machines+u.Machine]
		if *s > 0 {
			groups = append(groups, Group{Loop: u.Loop, Machine: u.Machine, Units: flat[:0:*s]})
			flat, *s = flat[*s:], -len(groups)
		}
		g := &groups[-*s-1]
		g.Units = append(g.Units, i)
	}
	return groups
}

// Result is the outcome of one work unit: the NDJSON result row of
// internal/pipeline (see pipeline.Row for the codec and field
// contract). A unit that fails carries its error in Error with the
// zero metrics.
type Result = pipeline.Row
