package core

import (
	"fmt"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// Model enumerates the four register-file organizations the paper
// evaluates (section 5.2).
type Model int

const (
	// Ideal is an infinite register file: an upper bound on performance.
	Ideal Model = iota
	// Unified is a traditional unified register file; it also models the
	// consistent dual register file, whose subfiles replicate everything.
	Unified
	// Partitioned is the non-consistent dual register file without
	// operation swapping.
	Partitioned
	// Swapped is Partitioned plus the greedy swap pass.
	Swapped

	NumModels = 4
)

// Models lists all models in presentation order.
var Models = [...]Model{Ideal, Unified, Partitioned, Swapped}

// String returns the paper's model name.
func (m Model) String() string {
	switch m {
	case Ideal:
		return "ideal"
	case Unified:
		return "unified"
	case Partitioned:
		return "partitioned"
	case Swapped:
		return "swapped"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel converts a model name back to its Model.
func ParseModel(s string) (Model, error) {
	for _, m := range Models {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown model %q", s)
}

// Requirement returns the number of registers the model needs for the
// schedule (per subfile for the dual organizations, which is what the
// paper plots), and the possibly rebalanced schedule (identical to the
// input except for Swapped). Ideal always requires 0.
func Requirement(model Model, s *sched.Schedule, lts []lifetime.Lifetime) (int, *sched.Schedule, error) {
	switch model {
	case Ideal:
		return 0, s, nil
	case Unified:
		r, err := regalloc.Registers(lts, s.II)
		return r, s, err
	case Partitioned:
		r, err := PartitionedRequirement(s, lts)
		return r, s, err
	case Swapped:
		swapped, _ := Swap(s, SwapOptions{})
		r, err := PartitionedRequirement(swapped, lts)
		return r, swapped, err
	default:
		return 0, nil, fmt.Errorf("core: unknown model %d", int(model))
	}
}

// Requirements returns Requirement's register count for every model,
// indexed by Model, from one call. Two exact shortcuts skip work that
// would repeat another model's:
//
//   - on a machine with fewer than two clusters every value is local to
//     cluster 0, so the global region is empty and the local region is
//     Unified's lifetime set (First Fit sorts it by a total order), and
//     Swap takes no step: Partitioned and Swapped equal Unified;
//   - when Swap takes no step the units, hence the classification, are
//     unchanged: Swapped equals Partitioned.
func Requirements(s *sched.Schedule, lts []lifetime.Lifetime) ([NumModels]int, error) {
	var out [NumModels]int
	unified, err := regalloc.Registers(lts, s.II)
	if err != nil {
		return out, fmt.Errorf("%v: %w", Unified, err)
	}
	out[Unified] = unified
	if s.Mach.NumClusters() < 2 {
		out[Partitioned], out[Swapped] = unified, unified
		return out, nil
	}
	var cl Classification // one set of buffers for both partitions
	classifyInto(&cl, s, lts, nil)
	if out[Partitioned], err = dualRequirement(&cl); err != nil {
		return out, fmt.Errorf("%v: %w", Partitioned, err)
	}
	swapped, steps := Swap(s, SwapOptions{})
	if steps == 0 {
		out[Swapped] = out[Partitioned]
		return out, nil
	}
	classifyInto(&cl, swapped, lts, nil)
	if out[Swapped], err = dualRequirement(&cl); err != nil {
		return out, fmt.Errorf("%v: %w", Swapped, err)
	}
	return out, nil
}
