package experiment

import (
	"fmt"
	"io"

	"ncdrf/internal/core"
	"ncdrf/internal/machine"
	"ncdrf/internal/report"
)

// ClusterScalingRow is one machine width in the cluster-scaling
// extension study.
type ClusterScalingRow struct {
	Clusters int
	AvgII    float64
	// AvgRegs[model] is the mean per-(sub)file register requirement.
	AvgRegs [core.NumModels]float64
}

// ClusterScalingResult is the full extension table.
type ClusterScalingResult struct {
	Latency int
	Rows    []ClusterScalingRow
}

// EvalN builds an n-cluster machine of {1 adder, 1 multiplier, 1 memory
// port} per cluster — the evaluation machine generalized beyond the
// paper's two clusters, for the future-work direction of section 6
// (the organization "could be applied to other processor
// implementations").
func EvalN(n, lat int) *machine.Config {
	if n == 2 {
		// Identical to the paper's evaluation machine; returning it by
		// its canonical name makes its groups the figures' groups in a
		// plan, which collapses machines onto their names.
		return machine.Eval(lat)
	}
	specs := make([]machine.ClusterSpec, n)
	for i := range specs {
		specs[i] = machine.ClusterSpec{Adders: 1, Multipliers: 1, MemPorts: 1}
	}
	return machine.MustNew(fmt.Sprintf("eval%dc-L%d", n, lat), specs, lat, lat, 1)
}

// ClusterCounts are the cluster study's default widths.
var ClusterCounts = []int{1, 2, 4}

// ClusterScaling projects the register-file models while the machine
// widens from one to several clusters: more clusters mean more
// parallelism (lower II) but also more cross-cluster consumers, testing
// how far the non-consistent organization's advantage extends. Each
// width reads its rows from s (ClusterPlan), so the two-cluster row at
// a paper latency is the Figure 6/7 rows themselves.
func ClusterScaling(s *Study, lat int, counts []int) (*ClusterScalingResult, error) {
	res := &ClusterScalingResult{Latency: lat}
	for _, nc := range counts {
		reqs, err := s.Requirements(EvalN(nc, lat))
		if err != nil {
			return nil, err
		}
		row := ClusterScalingRow{Clusters: nc}
		n := float64(len(reqs))
		for _, r := range reqs {
			row.AvgII += float64(r.II) / n
			for _, model := range core.Models {
				row.AvgRegs[model] += float64(r.Regs[model]) / n
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the extension table.
func (c *ClusterScalingResult) Render(w io.Writer) error {
	tb := &report.Table{
		Title: fmt.Sprintf("Extension: cluster scaling at latency %d (mean per-subfile registers)", c.Latency),
		Headers: []string{"clusters", "avg II", "unified", "partitioned", "swapped",
			"partitioned/unified"},
	}
	for _, row := range c.Rows {
		ratio := 0.0
		if row.AvgRegs[core.Unified] > 0 {
			ratio = row.AvgRegs[core.Partitioned] / row.AvgRegs[core.Unified]
		}
		tb.Add(fmt.Sprintf("%d", row.Clusters),
			report.F2(row.AvgII),
			report.F2(row.AvgRegs[core.Unified]),
			report.F2(row.AvgRegs[core.Partitioned]),
			report.F2(row.AvgRegs[core.Swapped]),
			report.F2(ratio))
	}
	return tb.Render(w)
}
