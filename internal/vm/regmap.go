package vm

import (
	"fmt"

	"ncdrf/internal/core"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// Target locates a value inside a physical register file: the file index,
// the rotating region inside it (base offset and size), and the
// register specifier q the allocator assigned. At iteration i the value
// occupies physical register base + ((q - i) mod size).
type Target struct {
	File int
	Base int
	Size int
	Spec int
}

// RegMap abstracts a register-file organization for Generate: where
// each value is written and where a consumer reads it.
type RegMap interface {
	// FileSizes returns the size of each physical file.
	FileSizes() []int
	// WriteTargets returns every location the producing node's value is
	// written to (one for unified/local values, one per subfile for
	// globals). Empty for stores.
	WriteTargets(node int) []Target
	// ReadTarget returns the location a consumer in the given cluster
	// reads the producer's value from.
	ReadTarget(consumerCluster, producerNode int) (Target, error)
}

// UnifiedMap implements RegMap for a single rotating file shared by all
// clusters (the paper's unified / consistent-dual model).
type UnifiedMap struct {
	alloc *regalloc.Allocation
}

// NewUnifiedMap allocates the lifetimes into one rotating file.
func NewUnifiedMap(lts []lifetime.Lifetime, ii int) (*UnifiedMap, error) {
	a, err := regalloc.FirstFit(lts, ii)
	if err != nil {
		return nil, err
	}
	return &UnifiedMap{alloc: a}, nil
}

// Registers returns the file size.
func (u *UnifiedMap) Registers() int { return u.alloc.Registers }

// FileSizes implements RegMap.
func (u *UnifiedMap) FileSizes() []int { return []int{u.alloc.Registers} }

// WriteTargets implements RegMap.
func (u *UnifiedMap) WriteTargets(node int) []Target {
	q, ok := u.alloc.Spec[node]
	if !ok {
		return nil
	}
	return []Target{{File: 0, Base: 0, Size: u.alloc.Registers, Spec: q}}
}

// ReadTarget implements RegMap.
func (u *UnifiedMap) ReadTarget(_, producer int) (Target, error) {
	q, ok := u.alloc.Spec[producer]
	if !ok {
		return Target{}, fmt.Errorf("vm: value %d not allocated", producer)
	}
	return Target{File: 0, Base: 0, Size: u.alloc.Registers, Spec: q}, nil
}

// DualMap implements RegMap for the non-consistent dual register file:
// every subfile has a shared global region (same specifiers everywhere)
// and a private local region, each rotating within itself.
type DualMap struct {
	class *core.Classification
	da    *core.DualAllocation
	// files[i] is the physical size of subfile i: globals + that
	// cluster's locals.
	files []int
}

// NewDualMap classifies and allocates the schedule's values onto the
// dual organization.
func NewDualMap(s *sched.Schedule, lts []lifetime.Lifetime) (*DualMap, error) {
	cl := core.Classify(s, lts)
	da, err := core.AllocateDual(cl)
	if err != nil {
		return nil, err
	}
	files := make([]int, cl.Clusters)
	for c := range files {
		files[c] = da.GlobalRegs + da.LocalRegs[c]
	}
	return &DualMap{class: cl, da: da, files: files}, nil
}

// Requirement returns the largest subfile size.
func (d *DualMap) Requirement() int { return d.da.Requirement }

// FileSizes implements RegMap.
func (d *DualMap) FileSizes() []int { return append([]int(nil), d.files...) }

// WriteTargets implements RegMap: globals are broadcast to every
// subfile's global region; locals go to their cluster's local region.
func (d *DualMap) WriteTargets(node int) []Target {
	class, ok := d.class.ByValue[node]
	if !ok {
		return nil
	}
	if class == core.Global {
		q := d.da.Global.Spec[node]
		targets := make([]Target, len(d.files))
		for f := range targets {
			targets[f] = Target{File: f, Base: 0, Size: d.da.GlobalRegs, Spec: q}
		}
		return targets
	}
	c := int(class)
	q := d.da.Local[c].Spec[node]
	return []Target{{File: c, Base: d.da.GlobalRegs, Size: d.da.LocalRegs[c], Spec: q}}
}

// ReadTarget implements RegMap: consumers always read their own
// cluster's subfile. Reading a value local to another cluster is a
// classification bug and is reported as such.
func (d *DualMap) ReadTarget(consumerCluster, producer int) (Target, error) {
	class, ok := d.class.ByValue[producer]
	if !ok {
		return Target{}, fmt.Errorf("vm: value %d not classified", producer)
	}
	if class == core.Global {
		q := d.da.Global.Spec[producer]
		return Target{File: consumerCluster, Base: 0, Size: d.da.GlobalRegs, Spec: q}, nil
	}
	c := int(class)
	if c != consumerCluster {
		return Target{}, fmt.Errorf("vm: cluster %d reads value %d which is local to cluster %d",
			consumerCluster, producer, c)
	}
	q := d.da.Local[c].Spec[producer]
	return Target{File: c, Base: d.da.GlobalRegs, Size: d.da.LocalRegs[c], Spec: q}, nil
}

// NewRegMap allocates a schedule's lifetimes onto the register files of
// a model: one rotating file for ideal and unified, the non-consistent
// dual organization for partitioned and swapped.
func NewRegMap(model core.Model, s *sched.Schedule, lts []lifetime.Lifetime) (RegMap, error) {
	switch model {
	case core.Ideal, core.Unified:
		u, err := NewUnifiedMap(lts, s.II)
		if err != nil {
			return nil, err
		}
		return u, nil
	case core.Partitioned, core.Swapped:
		d, err := NewDualMap(s, lts)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	return nil, fmt.Errorf("vm: unknown model %v", model)
}
