package core

import (
	"fmt"

	"ncdrf/internal/lifetime"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// DualAllocation is a register allocation onto a non-consistent dual (or
// generally multi-cluster) register file. Each subfile is split into a
// global region — identical specifiers in every subfile, holding the
// consistent copies — and a private local region, mirroring the paper's
// additive accounting (e.g. 13 global + 16 right-only = 29 registers in
// the right subfile of the worked example).
type DualAllocation struct {
	// GlobalRegs is the size of the replicated global region.
	GlobalRegs int
	// LocalRegs is the size of each cluster's private region.
	LocalRegs []int
	// Requirement is the size of the largest subfile: GlobalRegs plus
	// the largest local region. This is the number the paper reports.
	Requirement int
	// Global is the allocation of global values (shared specifiers).
	Global *regalloc.Allocation
	// Local holds each cluster's local-region allocation.
	Local []*regalloc.Allocation
}

// AllocateDual performs non-consistent dual register file allocation for
// an already classified schedule: First Fit wands-only allocation of the
// global region, then of each cluster's local region.
func AllocateDual(c *Classification) (*DualAllocation, error) {
	ga, err := regalloc.FirstFit(c.GlobalLts, c.II)
	if err != nil {
		return nil, fmt.Errorf("core: global region: %w", err)
	}
	da := &DualAllocation{
		GlobalRegs: ga.Registers,
		Global:     ga,
		LocalRegs:  make([]int, c.Clusters),
		Local:      make([]*regalloc.Allocation, c.Clusters),
	}
	for cluster := 0; cluster < c.Clusters; cluster++ {
		la, err := regalloc.FirstFit(c.LocalLts[cluster], c.II)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d region: %w", cluster, err)
		}
		da.Local[cluster] = la
		da.LocalRegs[cluster] = la.Registers
		if ga.Registers+la.Registers > da.Requirement {
			da.Requirement = ga.Registers + la.Registers
		}
	}
	return da, nil
}

// PartitionedRequirement computes the non-consistent dual register file
// requirement of a schedule without swapping (the paper's "partitioned"
// model).
func PartitionedRequirement(s *sched.Schedule, lts []lifetime.Lifetime) (int, error) {
	return dualRequirement(classify(s, lts, nil))
}

// dualRequirement is AllocateDual's Requirement, counted without
// building the allocations.
func dualRequirement(c *Classification) (int, error) {
	global, err := regalloc.Registers(c.GlobalLts, c.II)
	if err != nil {
		return 0, fmt.Errorf("core: global region: %w", err)
	}
	req := 0
	for cluster := 0; cluster < c.Clusters; cluster++ {
		local, err := regalloc.Registers(c.LocalLts[cluster], c.II)
		if err != nil {
			return 0, fmt.Errorf("core: cluster %d region: %w", cluster, err)
		}
		req = max(req, global+local)
	}
	return req, nil
}

// FitsDual reports whether the classified values fit in subfiles of r
// registers each, using First Fit in both regions.
func FitsDual(c *Classification, r int) bool {
	var d dualFit
	d.reset(c)
	return d.place(r)
}
