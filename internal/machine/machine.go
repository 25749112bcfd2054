// Package machine describes the VLIW target machines used throughout the
// reproduction: clustered collections of fully pipelined functional units
// with per-kind latencies, following the machine models of Llosa, Valero
// and Ayguadé (HPCA'95).
//
// A Config is immutable after construction. The zero Config is not useful;
// build one with New or use one of the presets.
package machine

import (
	"fmt"
	"sort"
	"strings"
)

// FUKind identifies a class of functional unit. The paper's machines have
// floating-point adders (which also execute subtractions and int<->float
// conversions), floating-point multipliers (which also execute divisions)
// and load/store units.
type FUKind int

const (
	// Adder executes FADD, FSUB and CONV operations.
	Adder FUKind = iota
	// Multiplier executes FMUL and FDIV operations.
	Multiplier
	// MemPort executes LOAD and STORE operations.
	MemPort

	numKinds
)

// Kinds lists every functional-unit kind in a fixed order.
var Kinds = [...]FUKind{Adder, Multiplier, MemPort}

// String returns the conventional short name of the kind.
func (k FUKind) String() string {
	switch k {
	case Adder:
		return "add"
	case Multiplier:
		return "mul"
	case MemPort:
		return "mem"
	default:
		return fmt.Sprintf("FUKind(%d)", int(k))
	}
}

// FU is a single functional-unit instance of a Config.
type FU struct {
	// Index is the global index of the unit within the machine, unique
	// across clusters and kinds.
	Index int
	// Kind is the unit's class.
	Kind FUKind
	// Cluster is the cluster the unit belongs to (0-based).
	Cluster int
}

// ClusterSpec gives the per-cluster unit counts used to build a Config.
type ClusterSpec struct {
	Adders      int
	Multipliers int
	MemPorts    int
}

// Config is a fully pipelined VLIW machine description.
type Config struct {
	name     string
	clusters []ClusterSpec
	latency  [numKinds]int
	units    []FU
	byKind   [numKinds][]int // unit indices per kind, ascending
}

// New builds a machine from per-cluster unit counts and per-kind latencies.
// Every cluster must contain at least one unit in total and all latencies
// must be at least one cycle.
func New(name string, clusters []ClusterSpec, addLat, mulLat, memLat int) (*Config, error) {
	if name == "" {
		return nil, fmt.Errorf("machine: empty name")
	}
	if len(clusters) == 0 {
		return nil, fmt.Errorf("machine %s: no clusters", name)
	}
	if addLat < 1 || mulLat < 1 || memLat < 1 {
		return nil, fmt.Errorf("machine %s: latencies must be >= 1 (add=%d mul=%d mem=%d)",
			name, addLat, mulLat, memLat)
	}
	c := &Config{
		name:     name,
		clusters: append([]ClusterSpec(nil), clusters...),
	}
	c.latency[Adder] = addLat
	c.latency[Multiplier] = mulLat
	c.latency[MemPort] = memLat
	for ci, spec := range clusters {
		if spec.Adders < 0 || spec.Multipliers < 0 || spec.MemPorts < 0 {
			return nil, fmt.Errorf("machine %s: cluster %d has negative unit count", name, ci)
		}
		if spec.Adders+spec.Multipliers+spec.MemPorts == 0 {
			return nil, fmt.Errorf("machine %s: cluster %d is empty", name, ci)
		}
		for i := 0; i < spec.Adders; i++ {
			c.addUnit(Adder, ci)
		}
		for i := 0; i < spec.Multipliers; i++ {
			c.addUnit(Multiplier, ci)
		}
		for i := 0; i < spec.MemPorts; i++ {
			c.addUnit(MemPort, ci)
		}
	}
	return c, nil
}

// MustNew is New but panics on error; intended for presets and tests.
func MustNew(name string, clusters []ClusterSpec, addLat, mulLat, memLat int) *Config {
	c, err := New(name, clusters, addLat, mulLat, memLat)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Config) addUnit(k FUKind, cluster int) {
	idx := len(c.units)
	c.units = append(c.units, FU{Index: idx, Kind: k, Cluster: cluster})
	c.byKind[k] = append(c.byKind[k], idx)
}

// Name returns the configuration's name (e.g. "P2L6").
func (c *Config) Name() string { return c.name }

// NumClusters returns the number of clusters.
func (c *Config) NumClusters() int { return len(c.clusters) }

// NumUnits returns the total number of functional units.
func (c *Config) NumUnits() int { return len(c.units) }

// Unit returns the unit with the given global index.
func (c *Config) Unit(i int) FU { return c.units[i] }

// Units returns a copy of all functional units in index order.
func (c *Config) Units() []FU { return append([]FU(nil), c.units...) }

// AppendUnitsOfKind appends the global indices of all units of kind k,
// ascending, to dst and returns the extended slice.
func (c *Config) AppendUnitsOfKind(dst []int, k FUKind) []int {
	return append(dst, c.byKind[k]...)
}

// CountOfKind returns the machine-wide number of units of kind k.
func (c *Config) CountOfKind(k FUKind) int { return len(c.byKind[k]) }

// ClusterCountOfKind returns the number of units of kind k in cluster ci.
func (c *Config) ClusterCountOfKind(ci int, k FUKind) int {
	n := 0
	for _, u := range c.byKind[k] {
		if c.units[u].Cluster == ci {
			n++
		}
	}
	return n
}

// Latency returns the execution latency in cycles for units of kind k.
func (c *Config) Latency(k FUKind) int { return c.latency[k] }

// Clustered reports whether the machine has more than one cluster.
func (c *Config) Clustered() bool { return len(c.clusters) > 1 }

// Unify returns an equivalent single-cluster machine: the same total unit
// counts and latencies collapsed into one cluster. It models the unified /
// consistent register-file organizations, where every unit can reach every
// register.
func (c *Config) Unify() *Config {
	var total ClusterSpec
	for _, s := range c.clusters {
		total.Adders += s.Adders
		total.Multipliers += s.Multipliers
		total.MemPorts += s.MemPorts
	}
	u := MustNew(c.name+"-unified", []ClusterSpec{total},
		c.latency[Adder], c.latency[Multiplier], c.latency[MemPort])
	return u
}

// String renders a compact human-readable description.
func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d cluster(s)", c.name, len(c.clusters))
	for ci, s := range c.clusters {
		fmt.Fprintf(&b, " [c%d: %dadd %dmul %dmem]", ci, s.Adders, s.Multipliers, s.MemPorts)
	}
	fmt.Fprintf(&b, " lat add=%d mul=%d mem=%d",
		c.latency[Adder], c.latency[Multiplier], c.latency[MemPort])
	return b.String()
}

// KindPressure returns, for every kind, the number of units of that kind;
// kinds with zero units are included. The result is sorted by kind.
func (c *Config) KindPressure() map[FUKind]int {
	m := make(map[FUKind]int, numKinds)
	for _, k := range Kinds {
		m[k] = len(c.byKind[k])
	}
	return m
}

// SortedUnitIndices returns all unit indices sorted first by kind then by
// cluster; used by deterministic schedulers.
func (c *Config) SortedUnitIndices() []int {
	idx := make([]int, len(c.units))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ua, ub := c.units[idx[a]], c.units[idx[b]]
		if ua.Kind != ub.Kind {
			return ua.Kind < ub.Kind
		}
		if ua.Cluster != ub.Cluster {
			return ua.Cluster < ub.Cluster
		}
		return ua.Index < ub.Index
	})
	return idx
}
